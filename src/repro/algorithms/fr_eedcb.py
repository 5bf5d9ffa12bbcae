"""FR-EEDCB — fading-resistant EEDCB (Section VI-B).

Two stages, exactly as the paper decomposes TMEDB-R:

1. **Broadcast backbone selection** — run the static-channel machinery on
   the fading TVEG; the auxiliary-graph weights are automatically the
   single-hop costs ``w0 = β / ln(1/(1−ε))`` because the DCS queries the
   fading channel's ``min_cost(ε)``.  This fixes the relay vector ``R`` and
   time vector ``T``.
2. **Optimal energy allocation** — solve the NLP of Eqs. (14)–(17) for the
   cost vector ``W`` given ``[R, T]``, accounting for the fact that under
   fading every transmission contributes probabilistically to every node it
   touches (so costs can drop below ``w0`` where coverage overlaps).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from .. import obs
from ..allocation.nlp import solve_allocation
from ..allocation.problem import build_allocation_problem
from ..errors import SolverError
from ..schedule.feasibility import check_feasibility
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register
from .eedcb import EEDCB

__all__ = ["FREEDCB"]

Node = Hashable


@register("fr-eedcb")
class FREEDCB(Scheduler):
    """Backbone selection via EEDCB + NLP energy allocation.

    Parameters mirror :class:`~repro.algorithms.eedcb.EEDCB`, plus
    ``use_slsqp`` to disable the SLSQP polish (coordinate descent and the
    closed form remain).
    """

    def __init__(
        self,
        memt_method: str = "greedy",
        charikar_level: int = 2,
        use_slsqp: bool = True,
        targets=None,
        compute: Optional[str] = None,
    ):
        self._backbone = EEDCB(
            memt_method,
            charikar_level,
            targets=targets,
            compute=compute,
        )
        self._use_slsqp = use_slsqp
        self._targets = tuple(targets) if targets is not None else None

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        if not tveg.is_fading:
            raise SolverError(
                "FR-EEDCB targets fading channels; use EEDCB on static ones"
            )
        backbone_result = self._backbone.run(tveg, source, deadline, start_time)
        backbone = backbone_result.schedule
        info = dict(backbone_result.info)
        stage_seconds: Dict[str, float] = dict(info.get("stage_seconds", {}))
        with obs.stage(stage_seconds, "allocation", "fr_eedcb.allocation"):
            # The ε-exact backbone is a valid allocation whenever it is
            # itself feasible — in that case the margin-tightened NLP must
            # never return anything more expensive.  (Rare extraction
            # corners can yield an infeasible backbone; the NLP then has to
            # spend more than w0 to repair it, so no fallback applies.)
            backbone_ok = check_feasibility(
                tveg, backbone, source, deadline,
                start_time=start_time, targets=self._targets,
            ).feasible
            problem = build_allocation_problem(
                tveg, backbone, source, targets=self._targets
            )
            alloc = solve_allocation(
                problem,
                use_slsqp=self._use_slsqp,
                fallback=backbone.cost_array() if backbone_ok else None,
            )
        schedule = backbone.with_costs(alloc.costs)
        record_schedule(schedule, "fr-eedcb")
        info.update(
            {
                "allocation_method": alloc.method,
                "slsqp_converged": alloc.slsqp_converged,
                "backbone_feasible": backbone_ok,
                "backbone_cost": backbone.total_cost,
                "allocated_cost": alloc.total,
                "num_constraints": len(problem.constraints),
                "nlp_iterations": alloc.nlp_iterations,
                "stage_seconds": stage_seconds,
            }
        )
        return SchedulerResult(schedule=schedule, info=info)
