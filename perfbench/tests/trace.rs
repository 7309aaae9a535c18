//! Span recording and self time.

use dial_perfbench::trace::{durations_ms, self_time_ns, totals_by_name, Tracer};

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let t = Tracer::new();
    let root = t.record_ns("serve.request", None, 1, 0, 100);
    // Two overlapping children cover 10..50; a third covers 60..70.
    t.record_ns("store.read", Some(root), 1, 10, 30);
    t.record_ns("store.read", Some(root), 1, 20, 50);
    let kernel = t.record_ns("core.kernel", Some(root), 1, 60, 70);
    // A grandchild is part of its parent's interval, not the root's.
    t.record_ns("par.chunk", Some(kernel), 1, 62, 68);
    let spans = t.spans();
    assert_eq!(self_time_ns(&spans, root), 100 - 40 - 10);
    assert_eq!(self_time_ns(&spans, kernel), 10 - 6);
}

#[test]
fn children_outside_the_parent_are_clipped() {
    let t = Tracer::new();
    let root = t.record_ns("a", None, 7, 100, 200);
    t.record_ns("b", Some(root), 7, 50, 120);
    t.record_ns("c", Some(root), 7, 190, 260);
    t.record_ns("d", Some(root), 7, 300, 400);
    assert_eq!(self_time_ns(&t.spans(), root), 100 - 20 - 10);
}

#[test]
fn totals_group_by_name_with_counts_and_self_time() {
    let t = Tracer::new();
    let root = t.record_ns("root", None, 1, 0, 1_000);
    t.record_ns("leaf", Some(root), 1, 0, 300);
    t.record_ns("leaf", Some(root), 1, 500, 600);
    let totals = totals_by_name(&t.spans());
    assert_eq!(totals["root"], (1, 1_000, 600));
    assert_eq!(totals["leaf"], (2, 400, 400));
    assert_eq!(durations_ms(&t.spans(), "leaf"), vec![300.0 / 1e6, 100.0 / 1e6]);
}

#[test]
fn live_spans_nest_through_their_ids() {
    let t = Tracer::new();
    let ((), outer) = t.span("outer", None, 3, |id| {
        t.span("inner", Some(id), 3, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(spans[0].id));
    assert!(spans.iter().all(|s| s.trace == 3));
    assert!(outer.as_nanos() as u64 >= spans[1].duration_ns());
    assert!(self_time_ns(&spans, 0) < spans[0].duration_ns());
}
