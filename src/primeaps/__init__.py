"""Desk-scale computational companion to the circle-method proof that
dense subsets of the primes contain three-term arithmetic progressions.

Modules by role (the package exports modules, not names: import
`primeaps.cli`, `primeaps.roth` and so on):

- sieve: the prime table, Euler phi, Mertens products, prime/rough supports
- measures: prime and almost-prime measures, dyadic split, PMSR round trip
- fourier: Z_N spectra, torus grids and L^p norms, trilinear 3AP counting
- arcs: rational approximation, arc classification, sup-difference scans
- roth: W-trick, Bohr-set granularization, closing bounds, Behrend sets
- cli: batch experiment runner with reproducible manifests

The paper's closed forms and bounds that no subcommand runs (local
densities, major-arc main terms, minor-arc and dyadic-piece bounds) and
the direct-summation oracles live beside the tests, in tests/paper.py.
"""

__version__ = "0.1.0"
