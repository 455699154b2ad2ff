"""Built-in scenario presets for the benchmark and experiment geometries."""

from __future__ import annotations

from dataclasses import replace

from .config import Injection, MechBC, ProbeSpec, ScalarBC, ScenarioConfig, WeakInterface
from .constitutive import MaterialParams
from .mesh import RefineBand
from .staggered import SolverControls

WATER_CF = 4.5e-10        # 1/Pa
WATER_MU = 1.0e-3         # Pa.s
WATER_ALPHA_F = 4.0e-4    # 1/K


def terzaghi() -> ScenarioConfig:
    """Consolidating column: 2 MPa load and drainage at x = 0, fixed at x = L.

    Column length, fluid viscosity and compressibility are not part of the
    benchmark table; see the preset values below.
    """
    L = 25.0
    materials = MaterialParams(
        E=0.3e9, nu=0.0, alpha_m=1.0, phi_m=0.3, perm_m=2e-12,
        mu_f=WATER_MU, c_f=WATER_CF)
    return ScenarioConfig(
        name="terzaghi",
        domain=(L, L / 100.0),
        nx=100, ny=1,
        materials=materials,
        controls=SolverControls(dt_schedule=[(1000.0, 1.0)]),
        solve_thermal=False,
        solve_phasefield=False,
        bcs_mech=[
            MechBC(set="left", traction=(2.0e6, 0.0)),
            MechBC(set="right", component="x", value=0.0),
            MechBC(set="top", component="y", value=0.0),
            MechBC(set="bottom", component="y", value=0.0),
        ],
        bcs_flow=[ScalarBC(set="left", value=0.0)],
        probes=[
            ProbeSpec(name="p_mid", kind="field", field="p", point=(L / 2.0, L / 200.0)),
            ProbeSpec(name="ux_face", kind="field", field="ux", point=(0.0, L / 200.0)),
        ],
        snapshot_every=200,
    )


def thermal_consolidation() -> ScenarioConfig:
    """Heated column: T = 343.15 K and drainage at x = 0, fixed at x = 1 m."""
    materials = MaterialParams(
        E=60e6, nu=0.4, alpha_m=1.0, phi_m=0.4, perm_m=1e-16,
        mu_f=WATER_MU, c_f=WATER_CF,
        alpha_s=3e-7, alpha_f=WATER_ALPHA_F,
        lambda_s=0.5, lambda_f=0.5, c_ps=800.0, c_pf=4200.0,
        rho_s=2600.0, rho_f=1000.0, T0=293.15)
    probes = []
    for x in (0.1, 0.2, 0.5):
        probes.append(ProbeSpec(name=f"p_x{x:g}", kind="field", field="p", point=(x, 0.1)))
        probes.append(ProbeSpec(name=f"T_x{x:g}", kind="field", field="T", point=(x, 0.1)))
    return ScenarioConfig(
        name="thermal_consolidation",
        domain=(1.0, 0.2),
        nx=100, ny=2,
        materials=materials,
        controls=SolverControls(dt_schedule=[
            (2.0e4, 1.0e3), (1.8e5, 4.0e3), (1.8e6, 3.0e4), (1.8e7, 2.0e5)]),
        solve_phasefield=False,
        bcs_mech=[
            MechBC(set="right", component="both", value=0.0),
            MechBC(set="top", component="y", value=0.0),
            MechBC(set="bottom", component="y", value=0.0),
        ],
        bcs_flow=[ScalarBC(set="left", value=0.0)],
        bcs_heat=[ScalarBC(set="left", value=343.15)],
        p_init=0.1e6,
        probes=probes,
        snapshot_every=50,
    )


def _kgd_materials(thermal: bool, fast: bool) -> MaterialParams:
    h = 0.1 if fast else 0.05
    kw = dict(E=17e9, nu=0.2, alpha_m=0.0, phi_m=0.0, c_f=0.0,
              mu_f=1e-8, perm_m=1e-18, Gc=300.0, ell=4.0 * h,
              n_at=1, k_res=1e-6, xi=1.0, s_stab=0.15)
    if thermal:
        kw.update(lambda_s=3.0, lambda_f=0.5, c_ps=800.0, c_pf=4200.0,
                  rho_s=2600.0, rho_f=1000.0, alpha_s=8e-6,
                  alpha_f=WATER_ALPHA_F, T0=323.15)
    return MaterialParams(**kw)


def kgd(fast: bool = True, porosity_variant: str = "phi1",
        t_end: float = 4.0) -> ScenarioConfig:
    """Plane-strain fluid-driven fracture, half symmetry at x = 0.

    Initial 2 m notch at mid-height, line injection at its mouth; the
    refined band keeps l/h_e = 4 ("fast" uses h_e = 0.1 m, full 0.05 m).
    """
    h = 0.1 if fast else 0.05
    schedule = [(0.1, 0.01)]
    if t_end > 0.1:
        schedule.append((t_end - 0.1, 0.1))
    return ScenarioConfig(
        name="kgd",
        domain=(45.0, 60.0),
        nx=45, ny=60,
        refine_bands=[
            RefineBand(axis="x", lo=0.0, hi=14.0, h=h, ratio=1.15),
            RefineBand(axis="y", lo=30.0 - 1.6, hi=30.0 + 1.6, h=h, ratio=1.15),
        ],
        cracks=[[(0.0, 30.0), (2.0, 30.0)]],
        materials=replace(_kgd_materials(thermal=False, fast=fast),
                          porosity_variant=porosity_variant),
        controls=SolverControls(dt_schedule=schedule),
        solve_thermal=False,
        bcs_mech=[
            MechBC(set="left", component="x", value=0.0),
            MechBC(set="right", component="both", value=0.0),
            MechBC(set="top", component="both", value=0.0),
            MechBC(set="bottom", component="both", value=0.0),
        ],
        bcs_flow=[ScalarBC(set="right", value=0.0),
                  ScalarBC(set="top", value=0.0),
                  ScalarBC(set="bottom", value=0.0)],
        injection=Injection(point=(0.0, 30.0), rate=2e-3),
        probes=[
            ProbeSpec(name="p_inj", kind="field", field="p", point=(0.0, 30.0)),
            ProbeSpec(name="length", kind="fracture_length",
                      path=[(0.0, 30.0), (45.0, 30.0)], threshold=0.1),
            ProbeSpec(name="w_inj", kind="width", point=(0.0, 30.0)),
        ],
        snapshot_every=0,
    )


def kgd_cold(stabilization: bool = True, dT: float = 30.0, fast: bool = True,
             t_end: float = 2.0) -> ScenarioConfig:
    """Cold-fluid KGD variant used for the advection stabilization study;
    ``stabilization=False`` sets ``s_stab = 0``."""
    cfg = kgd(fast=fast, t_end=t_end)
    cfg.name = "kgd_cold"
    materials = _kgd_materials(thermal=True, fast=fast)
    cfg.materials = materials if stabilization else replace(materials, s_stab=0.0)
    cfg.solve_thermal = True
    cfg.injection = Injection(point=(0.0, 30.0), rate=2e-3,
                              temperature=cfg.materials.T0 - dT)
    cfg.probes = cfg.probes + [
        ProbeSpec(name="T_inj", kind="field", field="T", point=(0.0, 30.0))]
    return cfg


def single_fracture(dT: float = 0.0, h: float = 0.01,
                    t_end: float = 2.0) -> ScenarioConfig:
    """Cold injection into a short center crack in a drained poroelastic box."""
    materials = MaterialParams(
        E=17e9, nu=0.2, alpha_m=0.6, phi_m=0.1, perm_m=1e-16,
        mu_f=1e-4, c_f=WATER_CF, Gc=100.0, ell=4.0 * h, n_at=1,
        lambda_s=3.0, lambda_f=0.5, c_ps=800.0, c_pf=4200.0,
        rho_s=2600.0, rho_f=1000.0, alpha_s=8e-6, alpha_f=WATER_ALPHA_F,
        T0=383.15)
    return ScenarioConfig(
        name="single_fracture",
        domain=(0.8, 0.4),
        nx=80, ny=40,
        refine_bands=[
            RefineBand(axis="x", lo=0.2, hi=0.6, h=h, ratio=1.15),
            RefineBand(axis="y", lo=0.12, hi=0.28, h=h, ratio=1.15),
        ],
        cracks=[[(0.38, 0.2), (0.42, 0.2)]],
        materials=materials,
        controls=SolverControls(dt_schedule=[(0.1, 0.005), (t_end - 0.1, 0.02)]),
        bcs_mech=[
            MechBC(set="left", component="x", value=0.0),
            MechBC(set="right", component="x", value=0.0),
            MechBC(set="top", component="y", value=0.0),
            MechBC(set="bottom", component="y", value=0.0),
        ],
        bcs_flow=[ScalarBC(set=s, value=0.0) for s in ("left", "right", "top", "bottom")],
        injection=Injection(point=(0.4, 0.2), rate=2e-5,
                            temperature=materials.T0 - dT),
        probes=[
            ProbeSpec(name="p_inj", kind="field", field="p", point=(0.4, 0.2)),
            ProbeSpec(name="length", kind="fracture_length",
                      path=[(0.05, 0.2), (0.75, 0.2)], threshold=0.1),
            ProbeSpec(name="w_inj", kind="width", point=(0.4, 0.2)),
        ],
        snapshot_every=0,
    )


def single_fracture_interface(dT: float = 0.0, h: float = 0.01,
                              t_end: float = 2.0) -> ScenarioConfig:
    """Single fracture plus a weak vertical interface (half the toughness)."""
    cfg = single_fracture(dT=dT, h=h, t_end=t_end)
    cfg.name = "single_fracture_interface"
    cfg.cracks = [[(0.39, 0.2), (0.41, 0.2)]]
    cfg.refine_bands = [
        RefineBand(axis="x", lo=0.0, hi=0.6, h=h, ratio=1.15),
        RefineBand(axis="y", lo=0.12, hi=0.28, h=h, ratio=1.15),
    ]
    cfg.weak_interfaces = [WeakInterface(segment=[(0.04, 0.15), (0.04, 0.25)], gc_ratio=0.5)]
    return cfg


PRESETS = {
    "terzaghi": terzaghi,
    "thermal_consolidation": thermal_consolidation,
    "kgd": kgd,
    "kgd_cold": kgd_cold,
    "single_fracture": single_fracture,
    "single_fracture_interface": single_fracture_interface,
}


def get_preset(name: str, **kwargs) -> ScenarioConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
