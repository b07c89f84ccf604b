from dataclasses import replace

import numpy as np

import polarbin as pb
from polarbin.hamiltonian import ArrowheadOperator
from polarbin.oracle import assemble_hamiltonian

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


def binned_fock(spec, bins, n_vib):
    """The binned model's Fock-basis Hamiltonian (a FockHamiltonian), placed
    by the reference module's assembly, independently of the arrowhead."""
    return assemble_hamiltonian(spec, pb.BasisLayout(bins.n_bins, n_vib), bins.centers,
                                spec.coupling * np.sqrt(bins.weights))


def scipy_csr(matrix):
    """A reference engine's CSR operator as scipy CSR, sharing its data
    (scipy casts the index arrays to int32), for the tests' dense and
    sparse arithmetic."""
    import scipy.sparse  # here, so that children importing conftest load no scipy

    return scipy.sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def block_slice(layout, surface, coordinate):
    """The levels of one coordinate on surface 0 (e1) or 1 (e2), as a slice
    of the state vector."""
    start = layout.index(surface, coordinate, 0)
    return slice(start, start + layout.vib_dim)


def hermiticity_defect(fock):
    """Max |H - H'| of a FockHamiltonian over all entries except the lossy
    photon-block diagonal."""
    matrix = scipy_csr(fock.matrix)
    defect = (matrix - matrix.conjugate().transpose()).tocoo()
    mask = ~((defect.row == defect.col) & (defect.row < fock.layout.photon_dim))
    if not mask.any():
        return 0.0
    return float(np.abs(defect.data[mask]).max())


def final_state(ham, psi0, dt_record, t_final, tolerance):
    """The state of propagate at t_final, kept through state_times."""
    return pb.propagate(ham, psi0, dt_record, t_final, tolerance,
                        state_times=[t_final]).states[-1]


def negated(ham):
    """-H, the time-reversed Hamiltonian, as an arrowhead in the same basis."""
    return replace(ham, matrix=ArrowheadOperator(-ham.matrix.diagonal, -ham.matrix.arm))
