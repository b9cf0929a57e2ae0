"""Compiled and pure kernels must be interchangeable bit for bit."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from cogseq import Objective, Scope
from cogseq import _search
from cogseq.solver import _kernel_inputs

from conftest import random_model, random_workflow

compiled = pytest.importorskip(
    "cogseq._kernel", reason="compiled kernel not built")


def both_kernels(workflow, model, objective, k):
    codes, preds, pair, shares, rp_cost, bound_in = _kernel_inputs(
        workflow, model, objective)
    n = len(codes)
    maximize = objective is Objective.MAXIMIZE
    args = (n, preds, pair, shares, rp_cost, bound_in, maximize, k)
    return _search.search(*args), compiled.search(*args)


class TestNames:
    def test_kernel_names(self):
        assert _search.KERNEL_NAME == "pure"
        assert compiled.KERNEL_NAME == "compiled"


class TestParity:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_workflows(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=8)
        scope = Scope.FULL_HISTORY if seed % 4 == 0 else Scope.ADJACENT
        model = random_model(rng, scope=scope)
        objective = Objective.MAXIMIZE if seed % 2 else Objective.MINIMIZE
        k = rng.choice((1, 2, 5))
        (pure_sols, _, _), (fast_sols, _, _) = both_kernels(
            wf, model, objective, k)
        assert pure_sols == fast_sols

    def test_node_counts_match_when_bounded(self):
        # Identical pruning decisions imply identical traversal counts.
        rng = random.Random(42)
        wf = random_workflow(rng, n_max=8, n_min=6)
        model = random_model(rng)
        (p_sols, p_nodes, p_prunes), (c_sols, c_nodes, c_prunes) = \
            both_kernels(wf, model, Objective.MINIMIZE, 1)
        assert p_sols == c_sols
        assert (p_nodes, p_prunes) == (c_nodes, c_prunes)

    def test_empty_problem(self):
        args = (0, [], [], [], 0, [], False, 1)
        assert compiled.search(*args) == _search.search(*args)
        assert compiled.search(*args)[0] == [(0, ())]


class TestCompiledLimits:
    def test_too_many_tasks_rejected(self):
        n = 65
        preds = [0] * n
        pair = [[0] * n for _ in range(n)]
        with pytest.raises(ValueError, match="64"):
            compiled.search(n, preds, pair, [0] * n, 0, [0] * n, False, 1)


class TestPureFallbackEnv:
    def test_cogseq_pure_forces_pure_kernel(self):
        code = (
            "import os; os.environ['COGSEQ_PURE'] = '1';\n"
            "from cogseq import KERNEL_NAME\n"
            "print(KERNEL_NAME)"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "pure"

    def test_default_prefers_compiled(self):
        code = (
            "import os; os.environ.pop('COGSEQ_PURE', None);\n"
            "from cogseq import KERNEL_NAME\n"
            "print(KERNEL_NAME)"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "compiled"

    def test_solver_results_identical_between_kernels(self):
        code = (
            "import os, json\n"
            "os.environ['COGSEQ_PURE'] = os.environ.get('WANT', '')\n"
            "from cogseq import SolveRequest, load_fixture, solve, "
            "instantiate_variant\n"
            "doc = load_fixture('checkin-full.json')\n"
            "wf = instantiate_variant(doc.workflow, 'AUTH', 'AUPW')\n"
            "sols = solve(SolveRequest(workflow=wf, k=4))\n"
            "print(json.dumps([[s.total, list(s.ordering)] for s in sols]))"
        )
        runs = {}
        for want in ("", "1"):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "WANT": want},
            )
            runs[want] = out.stdout
        assert runs[""] == runs["1"]
