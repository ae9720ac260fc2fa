"""toposlang: exact tooling for propositional and typed higher-order
languages interpreted in Heyting algebras and finite presheaf topoi.

The package is organized in layers:

- `intervals`: exact rational interval sets (the value descriptions that
  primitive propositions quantify over).
- `heyting`: finite bounded lattices and Heyting algebras, with builders
  for powerset, open-set, lower-set and sieve instances that certify
  their carrier at construction, the exhaustive law checker the tests use
  as an oracle, and the rank-two subspace lattice used by the
  non-distributivity demonstration.
- `category`: finite categories as composition tables, plus sieves,
  pullbacks and the sieve Heyting algebras.
- `presheaf`: the computational topos of presheaves on a finite base:
  classifier, characteristic morphisms, sub-object algebras, products,
  exponentials, power objects, transposes and global elements.
- `prop`: the propositional language: parser and printer, Heyting-valued
  and classical semantics, Hilbert proof checking, the intuitionistic
  decision procedure with Kripke countermodels, and the demos.
- `local`: the typed higher-order language: types, terms, type checking,
  substitution, axiom schemas, derivation checking and axiom packs.
- `rep`: representations of the typed language in a chosen backend, with
  the classical finite-state backend as a special case.
- `project` / `cli`: the JSON project-file format and the command-line
  front door.
"""

__version__ = "0.1.0"

from .errors import CapExceeded, InputError, ToposlangError  # noqa: F401
from .intervals import Interval, IntervalSet  # noqa: F401
from .heyting import (  # noqa: F401
    BoundedLattice,
    DownsetAlgebra,
    HeytingAlgebra,
    check_heyting_laws,
    lower_set_algebra,
    open_set_algebra,
    powerset_algebra,
    subspace_lattice_2d,
)
from .category import (  # noqa: F401
    FiniteCategory,
    Morphism,
    Sieve,
    from_poset,
    one_object_category,
    principal_sieve,
    pullback_sieve,
    sieve_heyting,
    sieves_on,
    validate_category,
)
from .presheaf import (  # noqa: F401
    GlobalElement,
    NatTransform,
    Presheaf,
    Subobject,
    char_morphism,
    classifier_kit,
    eval_arrow,
    exponential,
    global_elements,
    power_object,
    power_transpose,
    power_untranspose,
    product,
    sub_heyting,
    subobject_of_char,
    validate_nat,
    validate_presheaf,
)
from .prop.syntax import format_formula, parse_formula  # noqa: F401
from .prop.semantics import (  # noqa: F401
    ClassicalSystem,
    check_optional_axioms,
    classical_rep,
    pl_represent,
    truth_value,
)
from .prop.proofs import Proof, ProofLine, check_proof  # noqa: F401
from .prop.decide import decide  # noqa: F401
from .prop.kripke import KripkeModel  # noqa: F401
from .prop.demo import excluded_middle_demo, nondistributivity_demo  # noqa: F401
from .local import (  # noqa: F401
    Sequent,
    Signature,
    abelian_axiom_pack,
    check_derivation,
    desugar_connectives,
    format_term,
    infer_type,
    is_axiom_instance,
    lset_intersection,
    parse_term,
    parse_type,
    substitute,
)
from .rep import (  # noqa: F401
    EffectiveClassicalRep,
    ToposRep,
    build_rep,
    interpret_term,
    interpret_type,
    prop_family,
    validate_axioms,
)
from .project import Project, load_project  # noqa: F401
