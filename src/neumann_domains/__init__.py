"""Neumann domains of Morse functions on the flat torus.

The toolkit traces the gradient-flow partition of a closed-form field into
Neumann domains, classifies its geometry (degrees, angles, cusps, cracks),
and computes Neumann-Laplacian spectra of individual domains to locate the
spectral position of an eigenvalue.
"""

from .complexes import (NeumannComplex, NeumannDomain, build_complex,
                        nodal_neumann_angles)
from .contours import level_arc_in_face, nodal_set
from .cracked import build_crack_perturbation, verify_cracked
from .critical import (CriticalPoint, cusp_exponent, euler_check,
                       find_critical_points)
from .fem import (SpectrumReport, assemble_p1, domain_spectrum_report,
                  neumann_spectrum, restriction_residual, spectral_position)
from .fields import CrackPerturbation, MorseField, load_bundled
from .flow import FlowLine, integrate_flow, trace_all_neumann_lines
from .meshing import (TriMesh, TruncatedDomain, cusp_length_decay,
                      mesh_domain, structured_rect_mesh, truncate_domain)
from .svg import render_complex_svg
from .validate import run_invariants

__version__ = "0.1.0"

__all__ = [
    "CrackPerturbation", "CriticalPoint", "FlowLine", "MorseField",
    "NeumannComplex", "NeumannDomain", "SpectrumReport", "TriMesh",
    "TruncatedDomain", "assemble_p1", "build_complex",
    "build_crack_perturbation", "cusp_exponent", "cusp_length_decay",
    "domain_spectrum_report", "euler_check", "find_critical_points",
    "integrate_flow", "level_arc_in_face", "load_bundled", "mesh_domain",
    "neumann_spectrum", "nodal_neumann_angles", "nodal_set",
    "render_complex_svg", "restriction_residual", "run_invariants",
    "spectral_position", "structured_rect_mesh", "trace_all_neumann_lines",
    "truncate_domain", "verify_cracked",
]
