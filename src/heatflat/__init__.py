"""heatflat: exact output tracking for the boundary-controlled heat equation.

Modules
-------
numkit      Mittag-Leffler, polylogarithm, theta sums, the CSV writer
gevrey      Gevrey weight sequences, time/Fourier norms, test signals
plancherel  Mittag-Leffler weight expansion, A_n asymptotics, discrete Laplace
heatsim     spectral heat simulator, kernel k(t), transfer catalogue
flatness    flat-output control synthesis and trackability checks
holo        tilted-square Bergman tests, interpolation radius, loss factors
cli         batch experiment runner (``heatflat <subcommand>``)
"""

__version__ = "0.1.0"
