"""Thermo-hydro-mechanical phase-field hydraulic fracturing on quad meshes."""

__version__ = "0.1.0"
