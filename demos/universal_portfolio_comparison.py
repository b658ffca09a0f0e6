"""Sequential optimizing strategy vs Cover's universal portfolio.

Both are horizon-free strategies that converge to the best constant
proportion in hindsight.  The universal portfolio spreads capital over a
grid of constant-proportion accounts; the sequential strategy re-solves
for the hindsight optimum each round.  On a one-item stream the two end
up within a few nats of each other.
"""

import math

import numpy as np

from gtpbet import (
    Domain,
    GameConfig,
    TrainingSet,
    UniversalPortfolioConfig,
    sos_run,
    universal_portfolio,
)

rng = np.random.default_rng(3)
N = 1000
path = rng.uniform(-0.8, 0.8, size=(N, 1)) + 0.05

dom = Domain.box([-1.0], [1.0])
cfg = GameConfig(
    domain=dom,
    training=TrainingSet(epsilon0=0.1, points=np.array([[-1.0], [1.0]])),
)
res = sos_run(cfg, path)

up_plain = universal_portfolio(UniversalPortfolioConfig(M=100), path)
up_trained = universal_portfolio(
    UniversalPortfolioConfig(M=100, include_training=True), path
)

print(f"{N} rounds of uniform returns with a +0.05 drift")
print()
print("round   sequential   universal   universal+training   hindsight")
for n in (100, 300, 1000):
    i = n - 1
    print(
        f"{n:5d}  {res.ledger.logK_true[i]:10.3f}"
        f"  {math.log(up_plain[i]):10.3f}"
        f"  {math.log(up_trained[i]):17.3f}"
        f"  {res.ledger.logK_hindsight[i]:10.3f}"
    )
print()
print("(all values are log capital in nats; the universal portfolio is")
print(" guaranteed within log M = %.2f of its best grid account)" % math.log(100))
