"""heatflat: exact output tracking for the boundary-controlled heat equation.

Modules
-------
numkit      log-gamma, Mittag-Leffler type fit, theta sums, the series verdict, the CSV writer
gevrey      Gevrey weight sequences, time/Fourier norms, test signals
plancherel  Mittag-Leffler weight coefficients, A_n asymptotics, discrete Laplace
heatsim     spectral heat simulator, kernel k(t)
flatness    flat-output control synthesis and trackability checks
holo        tilted-square Bergman tests, interpolation radius, loss factors
cli         batch experiment runner (``heatflat <subcommand>``)
"""

__version__ = "0.1.0"
