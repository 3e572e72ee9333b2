"""Unit tests for Hockney link-cost parameters."""

import pytest

from repro.cluster.hockney import NIAGARA_LIKE, HockneyParameters, LinkCost
from repro.cluster.spec import LinkClass


class TestLinkCost:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LinkCost(alpha=-1e-6, beta=1e9)
        with pytest.raises(ValueError):
            LinkCost(alpha=1e-6, beta=0)


class TestHockneyParameters:
    def test_defaults_have_all_classes(self):
        for cls in (
            LinkClass.INTRA_SOCKET,
            LinkClass.INTER_SOCKET,
            LinkClass.INTER_NODE,
            LinkClass.INTER_GROUP,
        ):
            assert NIAGARA_LIKE.cost(cls).beta > 0

    def test_self_maps_to_memcpy(self):
        cost = NIAGARA_LIKE.cost(LinkClass.SELF)
        assert cost.alpha == 0.0
        assert cost.beta == NIAGARA_LIKE.memcpy_beta

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="missing link classes"):
            HockneyParameters(links={LinkClass.INTER_NODE: LinkCost(1e-6, 1e9)})

    def test_latency_hierarchy_plausible(self):
        # Shared memory < socket interconnect < network.
        a = NIAGARA_LIKE
        assert (
            a.cost(LinkClass.INTRA_SOCKET).alpha
            < a.cost(LinkClass.INTER_SOCKET).alpha
            < a.cost(LinkClass.INTER_NODE).alpha
            < a.cost(LinkClass.INTER_GROUP).alpha
        )

    def test_with_overrides(self):
        faster = NIAGARA_LIKE.with_overrides(INTER_NODE=LinkCost(alpha=1e-7, beta=4e10))
        assert faster.cost(LinkClass.INTER_NODE).alpha == 1e-7
        # Untouched classes preserved; original unchanged.
        assert faster.cost(LinkClass.INTRA_SOCKET) == NIAGARA_LIKE.cost(LinkClass.INTRA_SOCKET)
        assert NIAGARA_LIKE.cost(LinkClass.INTER_NODE).alpha != 1e-7
