"""
Asymptotic regimes and their universal constants
================================================

Three constants summarise the limits of the mode-resolved decomposition:

* ``alpha  ~ 1.193``  — short distance: every reduction factor collapses to
  the same linear law 1.5 * alpha * (L/lambda_P);
* ``gamma  ~ 29.752`` — large distance: eta_pl ~ -gamma * sqrt(Omega_P);
* ``beta_ev ~ 1.624`` — large distance: eta_ev ~ +beta_ev * sqrt(Omega_P).

Each is a parameter-free limit integral.  This script prints them with their
error estimates, and shows the closed forms approaching the large-distance
laws as Omega_P grows.
"""

import math

from casimir_plasmons import asymptotic_report, eta_evanescent, eta_plasmonic

report = asymptotic_report()
errors = report.error_estimates

print(f"{'limit':<26} {'value':>16} {'estimate':>9}")
for name in ("alpha", "gamma", "beta_ev", "sign_change_L_over_lambdaP"):
    print(f"{name:<26} {getattr(report, name):16.12f} {errors[name]:9.1e}")

# ----------------------------------------------------------------------
# Short distance: the slope of eta_pl against 1.5 * alpha
# ----------------------------------------------------------------------

ratio = 1e-3
slope = eta_plasmonic(2.0 * math.pi * ratio) / ratio
print(f"\nmeasured eta_pl slope at L/lambda_P={ratio:g}: {slope:.6f}")
print(f"predicted 1.5*alpha:                         {1.5 * report.alpha:.6f}")

# ----------------------------------------------------------------------
# Large distance: the closed forms approach the square-root laws
# ----------------------------------------------------------------------

print(f"\n{'Omega_P':>8} {'eta_pl/sqrt':>16} {'gap':>8} {'eta_ev/sqrt':>15} {'gap':>8}")
for omega_p in (1e5, 1e9, 1e13):
    root = math.sqrt(omega_p)
    pl = eta_plasmonic(omega_p) / root
    ev = eta_evanescent(omega_p) / root
    print(
        f"{omega_p:8.0e} {pl:16.10f} {pl + report.gamma:8.1e}"
        f" {ev:15.10f} {ev - report.beta_ev:8.1e}"
    )

# Each gap is the distance from the limit, -gamma or +beta_ev.  Per factor
# 1e4 in Omega_P, eta_pl's falls by 100 (a correction of relative order
# Omega_P**-0.5) and eta_ev's by 1e4 (of order 1/Omega_P).
