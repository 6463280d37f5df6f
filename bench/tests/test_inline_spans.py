from inline import Tracer, self_times, storage_counts


def _span(id_, name, parent, start, end, storage=None):
    return {"id": id_, "name": name, "parent": parent, "workload": "w", "batch": 0,
            "start_ns": start, "end_ns": end, "storage": storage or {}}


def test_self_time_is_duration_minus_children_and_folded_calls():
    spans = [
        _span(0, "inline", None, 0, 1000),
        _span(1, "lookup", 0, 100, 600, {"lookup_ips": [1, 40, 120], "lookup_cname": [7, 7, 80]}),
        _span(2, "writer.format", 0, 600, 900),
        _span(3, "lookup", 0, 900, 950, {"lookup_ips": [1, 2, 10]}),
    ]
    own = self_times(spans)
    assert own["inline"] == 1000 - (500 + 300 + 50)
    assert own["lookup"] == (500 - 120 - 80) + (50 - 10)
    assert own["storage.lookup_ips"] == 130
    assert own["storage.lookup_cname"] == 80
    assert own["writer.format"] == 300
    # Every nanosecond of the root is accounted to exactly one name.
    assert sum(own.values()) == 1000
    assert storage_counts(spans) == {"lookup_ips": [2, 42], "lookup_cname": [7, 7]}


def test_tracer_nests_spans_and_folds_storage_calls_into_the_open_one():
    class Storage:
        def lookup_ips(self, keys, now):
            return {k: "name" for k in keys}

        def add_many_columns(self, batch):
            return None

        def lookup_cname(self, name, now):
            return None

        def memoize_chain(self, name, final):
            return None

    storage = Storage()
    tracer = Tracer("w")
    tracer.shim_storage(storage)
    tracer.open("inline")
    tracer.open("lookup", batch=3)
    assert storage.lookup_ips({"a": None, "b": None}, 0.0) == {"a": "name", "b": "name"}
    storage.lookup_cname("x", 0.0)
    storage.lookup_cname("y", 0.0)
    tracer.close()
    tracer.close()
    root, lookup = tracer.spans
    assert (lookup["parent"], lookup["batch"], lookup["workload"]) == (root["id"], 3, "w")
    assert root["start_ns"] <= lookup["start_ns"] <= lookup["end_ns"] <= root["end_ns"]
    assert lookup["storage"]["lookup_ips"][:2] == [1, 2]
    assert lookup["storage"]["lookup_cname"][:2] == [2, 2]
    assert root["storage"] == {}
