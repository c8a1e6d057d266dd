"""Tests for the Tensor class and the autograd graph machinery."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.exceptions import AutogradError


class TestTensorConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros((3,), dtype=np.float64))
        assert t.dtype == np.float64

    def test_integer_data_kept_as_int64(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.dtype == np.int64

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(AutogradError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_from_tensor_copies_reference_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a", "b"]))

    def test_basic_properties(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True, name="weights")
        text = repr(t)
        assert "shape=(2, 2)" in text
        assert "requires_grad=True" in text
        assert "weights" in text


class TestTensorFactories:
    def test_zeros_ones_full(self):
        assert np.all(Tensor.zeros(2, 3).data == 0)
        assert np.all(Tensor.ones(4).data == 1)
        assert np.all(Tensor.full((2, 2), 7.0).data == 7.0)

    def test_randn_respects_rng(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        a = Tensor.randn(3, 3, rng=rng1)
        b = Tensor.randn(3, 3, rng=rng2)
        assert np.array_equal(a.data, b.data)

    def test_arange(self):
        assert np.array_equal(Tensor.arange(5).data, np.arange(5))


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = x * 2
        with pytest.raises(AutogradError):
            y.backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 0.5, 2.0], dtype=np.float32))
        assert np.allclose(x.grad, [3.0, 1.5, 6.0])

    def test_backward_wrong_gradient_shape_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(AutogradError):
            y.backward(np.ones((3,), dtype=np.float32))

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(AutogradError):
            x.backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad_clears(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_gradient(self):
        # y = a*b + a*c where both branches share a.
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        c = Tensor([4.0], requires_grad=True)
        y = (a * b + a * c).sum()
        y.backward()
        assert np.allclose(a.grad, [7.0])
        assert np.allclose(b.grad, [2.0])
        assert np.allclose(c.grad, [2.0])

    def test_reused_tensor_many_times(self):
        x = Tensor([1.5], requires_grad=True)
        y = sum((x * i for i in range(1, 5)), Tensor([0.0])).sum()
        y.backward()
        assert np.allclose(x.grad, [1 + 2 + 3 + 4])

    def test_constants_receive_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        y = (x * c).sum()
        y.backward()
        assert c.grad is None


class TestDetachAndNoGrad:
    def test_detach_cuts_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert y.requires_grad is False
        z = Tensor(y.data, requires_grad=True)
        (z * 3).sum().backward()
        assert x.grad is None

    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert y.requires_grad is False
        assert y._ctx is None

    def test_no_grad_restores_state_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # Overlapping scopes on two threads, exited in the "wrong" order: the
        # second thread's exit must not leave the first thread's mode off.
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def other():
            with no_grad():
                entered.set()
                release.wait(timeout=10.0)
                seen["other"] = is_grad_enabled()

        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(timeout=10.0)
        assert is_grad_enabled()  # the other thread's scope does not leak here
        with no_grad():
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == {"other": False}
        assert is_grad_enabled()

    def test_copy_is_independent(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x.copy()
        y.data[0] = 99.0
        assert x.data[0] == 1.0
        assert y.requires_grad is True


class TestTensorMethods:
    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_argmax(self):
        t = Tensor([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        assert np.array_equal(t.argmax(axis=1), [1, 0])

    def test_transpose_property(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.T.shape == (3, 2)

    def test_reshape_with_tuple_argument(self):
        t = Tensor(np.arange(6, dtype=np.float32))
        assert t.reshape((2, 3)).shape == (2, 3)
        assert t.reshape(3, 2).shape == (3, 2)

    def test_astype(self):
        t = Tensor([1.0, 2.0])
        assert t.astype(np.float64).dtype == np.float64
