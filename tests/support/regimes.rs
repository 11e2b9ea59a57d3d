//! The one check every differential harness makes: a template draw served
//! through all three regimes returns exactly the expected table. Included
//! by each test binary that uses it through `#[path]`.

use relgo::prelude::*;

/// Serve draw `draw` of `template` on `session` under `mode` through
/// `Session::run` (fresh optimization), `Session::run_cached` (plan-cache
/// probe + literal rebind) and a statement prepared from draw 0 and executed
/// with the draw's bindings (so that it really rebinds), and assert each
/// result **bit-identical** to `want`: the same rows in the same order.
/// `what` says in the failure message what `want` came from.
pub fn assert_regimes_match(
    session: &Session,
    template: &QueryTemplate,
    draw: u64,
    mode: OptimizerMode,
    want: &Table,
    what: &str,
) {
    let case = format!("{} draw {draw} {}", template.name(), mode.name());
    let q = template.instantiate(draw).unwrap();
    let direct = session.run(&q, mode).unwrap().table;
    assert!(
        want.bit_identical(&direct),
        "{case}: run diverges from {what}"
    );
    let cached = session.run_cached(&q, mode).unwrap().table;
    assert!(
        want.bit_identical(&cached),
        "{case}: run_cached diverges from {what}"
    );
    let stmt = session
        .prepare(&template.instantiate(0).unwrap(), mode)
        .unwrap();
    let prepared = stmt
        .execute(&template.bindings(draw).unwrap())
        .unwrap()
        .table;
    assert!(
        want.bit_identical(&prepared),
        "{case}: prepared execute diverges from {what}"
    );
}
