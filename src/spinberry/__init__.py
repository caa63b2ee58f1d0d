"""Adiabatic quantum cycles of spins with dipole plus quadrupole coupling.

Core functionality:

- exact spin operators and rotation unitaries (:mod:`spinberry.spin_algebra`)
- the reduced Hamiltonian Sigma_z + lambda Sigma_x^2, its parity blocks and
  rank-labeled spectrum (:mod:`spinberry.hamiltonian`)
- geometric phases as loop integrals over cycle schedules
  (:mod:`spinberry.berry`, :mod:`spinberry.schedules`)
- rotating-frame non-adiabatic corrections and magic couplings
  (:mod:`spinberry.nonadiabatic`)
- exact time integration, pulse shaping and mirror-cycle phase extraction
  (:mod:`spinberry.dynamics`, :mod:`spinberry.pulses`)
- holonomic entanglement of four spin-1/2 particles (:mod:`spinberry.entangle`)
"""

__version__ = "0.1.0"

from .berry import (BerryPhaseResult, GaugeField, berry_phase_adiabatic,
                    gauge_field, gauge_field_sphere, gauge_invariance_check)
from .dynamics import (CycleResult, LeakageWarning, MirrorResult, RampResult,
                       mirror_phase_difference, ramp_fidelity, run_cycle)
from .entangle import (DeltaBeta, EntangleResult, FourSpinState,
                       SymmetricBasis, closed_form_delta_beta,
                       entangling_cycle, lambda_max_solve,
                       symmetric_basis_m1, tune_stage_stretch)
from .hamiltonian import (LabeledSpectrum, ParityBlock, ReducedHamiltonian,
                          characteristic_polynomial, energy_derivative,
                          labeled_spectrum, parity_blocks,
                          perturbative_polarization_m0, polarization,
                          reduced_hamiltonian)
from .nonadiabatic import (CoriolisParams, NearDegeneracyError, NoRootError,
                           TransverseShift, delta_p, longitudinal_phase,
                           magic_lambda, magic_lambda_fit, q_coefficient,
                           transverse_second_order)
from .pulses import PulseShape, blackman, blackman_integral
from .schedules import (CycleSchedule, ScheduleError, Segment,
                        alpha_rotation_cycle, from_dict, from_file,
                        from_segments, phi_rotation_cycle, three_stage_cycle)
from .spin_algebra import (EulerAngles, SpinRep, m_parity, rotation_unitary,
                           spin_matrices)

__all__ = [name for name in dir() if not name.startswith("_")]
