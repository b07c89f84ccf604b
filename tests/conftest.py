from dataclasses import replace

import numpy as np

import polarbin as pb

FIG3 = dict(
    omega0=0.10, omega_nu=0.01, s1=-1.0, s2=-4.0, v12=0.0025,
    omega_c=0.11, kappa=0.006, coupling=0.03, sigma=0.0,
)


def fig3_spec(**overrides):
    """Production parameter set with optional per-test overrides."""
    params = dict(FIG3)
    params.update(overrides)
    return pb.ModelSpec(**params)


def random_small_spec(rng: np.random.Generator) -> pb.ModelSpec:
    """Random physically sane parameters for small invariant checks."""
    return pb.ModelSpec(
        omega0=rng.uniform(0.08, 0.12),
        omega_nu=rng.uniform(0.008, 0.012),
        s1=rng.uniform(-1.5, 1.5),
        s2=rng.uniform(-1.5, 1.5),
        v12=rng.uniform(0.0, 0.004),
        omega_c=rng.uniform(0.09, 0.13),
        kappa=rng.uniform(0.0, 0.01),
        coupling=rng.uniform(0.0, 0.04),
        sigma=rng.uniform(0.0, 0.03),
    )


def negated(ham):
    """-H, the time-reversed Hamiltonian, stepped as Fock-basis CSR."""
    rows, cols, values = ham.entries
    return replace(ham, matrix=-ham.fock_matrix(), entries=(rows, cols, -values),
                   basis=None)
