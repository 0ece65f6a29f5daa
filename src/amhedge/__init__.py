"""Pricing and superhedging of American options on a defaultable lattice."""

from .bsde import ConvergenceError, Solution
from .drivers import (Driver, borrow_lend_driver, check_gamma_assumption,
                      check_lambda_admissible, large_trader_driver,
                      perfect_driver)
from .hedging import (WealthField, path_sample, simulate_wealth, strict_gain_after_nubar,
                      verify_superhedge_buyer, verify_superhedge_seller,
                      wealth_martingale_residual)
from .market import (MarketParams, PiecewiseConstant, Tree, build_tree,
                     node_key)
from .oracle import (apriori_estimate_check, brute_force_seller_value,
                     crr_american_oracle, enumerate_stopping_rules, g_evaluation,
                     martingale_check, solve_bsde)
from .payoffs import call, compile_payoff, put
from .pricing import (PricingReport, Strategy, buyer_price, epsilon_gap_bound,
                      epsilon_rational, is_rational, phi_inverse, phi_map,
                      price_american, rational_exercise_times, seller_price)
from .rbsde import (Obstacle, StoppingRule, skorokhod_residual, solve_rbsde_lower,
                    solve_rbsde_upper)

__version__ = "0.1.0"
