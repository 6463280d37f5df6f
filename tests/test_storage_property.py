"""Property-based tests for the storage layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rotating import StoreBank

_key = st.text(min_size=1, max_size=24)
_value = st.text(min_size=1, max_size=24)


@given(
    st.lists(
        st.tuples(_key, _value, st.integers(min_value=0, max_value=10_000)),  # ttl
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50)
def test_store_bank_lookup_finds_last_put_before_any_clear(puts):
    """Without clear-ups, the bank is exactly a last-write-wins map."""
    bank = StoreBank(clear_up_interval=1e9)
    expected = {}
    for ts, (key, value, ttl) in enumerate(puts):
        bank.put(key, value, ttl=ttl, ts=float(ts))
        expected[key] = value
    for key, value in expected.items():
        assert bank.lookup(key) == value
    assert bank.total_entries() == len(expected)


@given(st.lists(st.tuples(_key, _value), min_size=1, max_size=40))
@settings(max_examples=30)
def test_rotation_preserves_exactly_one_generation(puts):
    bank = StoreBank(clear_up_interval=100.0)
    for key, value in puts:
        bank.put(key, value, ttl=1, ts=0.0)
    generation = {k: v for k, v in puts}
    bank.force_clear_up()
    # Everything from the pre-rotation generation is in Inactive.
    for key, value in generation.items():
        found, tier = bank.deep_lookup(key)
        assert found == value and tier.value == "inactive"
    bank.force_clear_up()
    for key in generation:
        assert bank.deep_lookup(key) == (None, None)


@given(
    st.lists(
        st.tuples(_key, st.integers(min_value=0, max_value=2000)),
        min_size=1,
        max_size=50,
    ),
    st.floats(min_value=0, max_value=3000),
)
@settings(max_examples=50)
def test_exact_ttl_store_never_serves_expired(puts, now):
    from repro.storage.exact_ttl import ExactTtlStore

    store = ExactTtlStore()
    latest = {}
    for key, ttl in puts:
        store.put(key, f"v-{ttl}", ttl=ttl, ts=0.0)
        latest[key] = ttl
    for key, ttl in latest.items():
        result = store.lookup(key, now=now)
        if ttl >= now:
            assert result == f"v-{ttl}"
        else:
            assert result is None
