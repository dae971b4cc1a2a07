"""Exclusivity-graph toolkit for logical proofs of quantum correlations.

The package models measurement scenarios as exclusivity graphs (events as
vertices, exclusive event pairs as edges) and provides the machinery needed
to analyse Hardy-type logical paradoxes on top of them:

- ``scenario``     measurement scenarios, events, exclusivity graphs
- ``graphs``       graph invariants: independence number, Lovasz theta,
                   odd holes, orthonormal representations
- ``classical``    deterministic strategies and noncontextual behaviors
- ``quantum``      exact state vectors, projective models,
                   the ququart realization of the CHSH paradox
- ``paradox``      machine-checkable paradox specifications and verification
- ``inequalities`` probability and correlator inequalities and their bounds
- ``optimize``     seeded multistart penalty optimization of model families
- ``cli``          command line front end reproducing the headline numbers
"""

__version__ = "0.1.0"
