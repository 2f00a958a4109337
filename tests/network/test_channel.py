"""Unit tests for the virtual channel trio model and the channel bank."""

import pytest

from repro.network.channel import (
    ChannelBank,
    ChannelStateError,
    VCClass,
    VC_CLASSES,
    VCState,
    VirtualChannel,
)


class TestVCClasses:
    def test_layout_has_two_deterministic_classes(self):
        assert VC_CLASSES == (
            VCClass.DETERMINISTIC_0,
            VCClass.DETERMINISTIC_1,
            VCClass.ADAPTIVE,
        )

    def test_requires_one_adaptive(self):
        assert VC_CLASSES.count(VCClass.ADAPTIVE) == 1

    def test_deterministic_predicate(self):
        assert VCClass.DETERMINISTIC_0.is_deterministic
        assert VCClass.DETERMINISTIC_1.is_deterministic
        assert not VCClass.ADAPTIVE.is_deterministic


class TestVirtualChannel:
    def test_initially_free(self):
        vc = VirtualChannel(0, 0, VCClass.ADAPTIVE)
        assert vc.is_free
        assert vc.owner is None
        assert vc.state is VCState.FREE

    def test_reserve_sets_owner(self):
        vc = VirtualChannel(0, 0, VCClass.ADAPTIVE)
        vc.reserve(42)
        assert not vc.is_free
        assert vc.owner == 42

    def test_double_reserve_raises(self):
        vc = VirtualChannel(0, 0, VCClass.ADAPTIVE)
        vc.reserve(1)
        with pytest.raises(ChannelStateError):
            vc.reserve(2)

    def test_release_frees(self):
        vc = VirtualChannel(0, 0, VCClass.ADAPTIVE)
        vc.reserve(1)
        vc.release()
        assert vc.is_free
        assert vc.owner is None

    def test_release_free_raises(self):
        vc = VirtualChannel(0, 0, VCClass.ADAPTIVE)
        with pytest.raises(ChannelStateError):
            vc.release()

    def test_reserve_release_cycle(self):
        vc = VirtualChannel(3, 1, VCClass.DETERMINISTIC_0)
        for owner in range(5):
            vc.reserve(owner)
            assert vc.owner == owner
            vc.release()


class TestChannelBank:
    def test_vcs_per_channel(self):
        bank = ChannelBank(num_channels=10)
        assert bank.vcs_per_channel == 3
        assert [vc.vclass for vc in bank.vcs(9)] == list(VC_CLASSES)

    def test_free_adaptive_prefers_adaptive_class(self):
        bank = ChannelBank(4)
        vc = bank.free_adaptive(2)
        assert vc is not None
        assert vc.vclass is VCClass.ADAPTIVE

    def test_free_adaptive_skips_reserved(self):
        bank = ChannelBank(4)
        for vc in bank.vcs(0)[:2]:
            vc.reserve(1)
        vc = bank.free_adaptive(0)
        assert vc is not None and vc.vclass is VCClass.ADAPTIVE
        assert bank.free_adaptive(1) is bank.vc(1, 2)

    def test_free_adaptive_none_when_exhausted(self):
        bank = ChannelBank(4)
        bank.free_adaptive(0).reserve(1)
        assert bank.free_adaptive(0) is None

    def test_deterministic_lookup_by_class(self):
        bank = ChannelBank(4)
        vc0 = bank.deterministic(1, VCClass.DETERMINISTIC_0)
        vc1 = bank.deterministic(1, VCClass.DETERMINISTIC_1)
        assert vc0.index == 0 and vc1.index == 1

    def test_deterministic_rejects_adaptive_class(self):
        bank = ChannelBank(4)
        with pytest.raises(ValueError):
            bank.deterministic(0, VCClass.ADAPTIVE)

    def test_all_free_initially(self):
        bank = ChannelBank(6)
        assert bank.all_free()
