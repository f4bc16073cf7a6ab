//! Watching Figure 4 happen: a six-server service is partitioned into
//! three cells; within each cell the servers keep each other tight
//! while the cells drift apart, and the service decomposes into the
//! paper's three consistency groups.
//!
//! When the *network* heals, the *service* does not (§5): the cells'
//! intervals no longer overlap, and every cross-cell reply is rejected
//! as inconsistent. The §3 recovery rule ("reset to the value of any
//! third server") takes that value on faith; this service screens it
//! as §5 advises, adopting a third server's reply only if it intersects
//! at least half of what the other neighbours said recently. Across
//! three disjoint cells of two, a reply meets at most one of the four
//! other claims, so every recovery is started and refused, and the
//! cells stay cut off from each other. Split the same service into a
//! majority and a minority instead, and the minority's recoveries pass
//! the screen: no server is cut off any more. (The clocks still violate
//! their claimed bounds, so the service is a chain of overlapping
//! groups rather than one — the §3 caveat about several incorrect
//! servers.)
//!
//! ```text
//! cargo run --example consistency_groups
//! ```

use tempo::clocks::{DriftModel, SimClock};
use tempo::core::DriftRate;
use tempo::core::{Duration, Timestamp};
use tempo::net::{DelayModel, NetConfig, Partition, Topology, World};
use tempo::service::{RecoveryPolicy, ServerConfig, ServerStats, Strategy, TimeServer};
use tempo_core::consistency::{consistency_groups, ConsistencyGraph};

/// At each checkpoint, the consistency groups and the connected
/// components of the pairwise-consistency graph (servers no chain of
/// overlapping intervals links); every server's counters at the end.
struct Run {
    checkpoints: Vec<(f64, usize, usize)>,
    stats: Vec<ServerStats>,
}

impl Run {
    fn at(&self, t: f64) -> (usize, usize) {
        self.checkpoints
            .iter()
            .find(|&&(ct, ..)| ct == t)
            .map(|&(_, groups, components)| (groups, components))
            .expect("a checkpoint")
    }

    fn recoveries(&self) -> (usize, usize, usize) {
        self.stats.iter().fold((0, 0, 0), |(s, a, r), st| {
            (
                s + st.recoveries_started,
                a + st.recoveries_applied,
                r + st.recoveries_rejected,
            )
        })
    }
}

fn run(recovery: RecoveryPolicy, cells: &[&[usize]]) -> Run {
    // Three pairs of servers, each pair with a distinct drift direction
    // so the cells separate while partitioned. Claimed bounds are
    // deliberately *understated* (1/4 of actual) so the intervals
    // cannot absorb the separation — the §5 precondition for
    // inconsistency.
    let drifts = [3e-4, 3.2e-4, -2.8e-4, -3e-4, 1e-5, -1e-5];
    let claimed = 8e-5;
    let servers: Vec<TimeServer> = drifts
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let clock = SimClock::builder()
                .drift(DriftModel::Constant(d))
                .seed(i as u64)
                .build();
            TimeServer::new(
                clock,
                ServerConfig::new(Strategy::Im, DriftRate::new(claimed))
                    .resync_period(Duration::from_secs(10.0))
                    .collect_window(Duration::from_secs(0.5))
                    .initial_error(Duration::from_millis(20.0))
                    .recovery(recovery),
            )
        })
        .collect();

    let partition = Partition {
        from: Timestamp::from_secs(50.0),
        until: Timestamp::from_secs(350.0),
        groups: cells
            .iter()
            .map(|c| c.iter().map(|&i| i.into()).collect())
            .collect(),
    };
    let mut world = World::new(
        servers,
        Topology::full_mesh(6),
        NetConfig::with_delay(DelayModel::Constant(Duration::from_millis(5.0)))
            .partition(partition),
        11,
    );

    let mut checkpoints = Vec::new();
    for checkpoint in [40.0, 150.0, 349.0, 420.0, 600.0, 900.0] {
        world.run_until(Timestamp::from_secs(checkpoint));
        let now = world.now();
        let estimates: Vec<_> = world
            .actors_mut()
            .iter_mut()
            .map(|s| s.current_estimate(now))
            .collect();
        let intervals: Vec<_> = estimates.iter().map(|e| e.interval()).collect();
        let groups = consistency_groups(&intervals);
        let components = ConsistencyGraph::new(&estimates).components().len();
        let rendered: Vec<String> = groups
            .iter()
            .map(|g| {
                let members: Vec<String> =
                    g.members.iter().map(|m| format!("S{}", m + 1)).collect();
                format!("{{{}}}", members.join(","))
            })
            .collect();
        println!(
            "{checkpoint:>5.0}s  {components} component(s), {} group(s): {}",
            groups.len(),
            rendered.join("  ")
        );
        checkpoints.push((checkpoint, groups.len(), components));
    }
    let stats: Vec<ServerStats> = world.actors().iter().map(TimeServer::stats).collect();
    let result = Run { checkpoints, stats };
    let (started, applied, rejected) = result.recoveries();
    println!("       recoveries: {started} started, {applied} applied, {rejected} refused");
    result
}

fn main() {
    let three_cells: &[&[usize]] = &[&[0, 1], &[2, 3], &[4, 5]];
    println!("partition into three cells t=50..350s; network heals afterwards");
    println!();
    println!("— without recovery (bare IM) —");
    let bare = run(RecoveryPolicy::Ignore, three_cells);
    println!();
    println!("— with screened third-server recovery —");
    let screened = run(RecoveryPolicy::ThirdServer, three_cells);

    // While partitioned, both decompose into Figure 4-style groups,
    // one cut-off part per cell.
    assert_eq!(bare.at(349.0), (3, 3), "partition must split the service");
    assert_eq!(
        screened.at(349.0),
        (3, 3),
        "partition must split the service"
    );
    // Without recovery the split outlives the partition (§5's point).
    assert_eq!(bare.at(900.0), (3, 3), "bare IM must stay split");
    assert_eq!(bare.recoveries(), (0, 0, 0), "recovery is off");
    // With recovery every server asks a third server, and the screen
    // refuses every answer: no cell holds half of the other claims, so
    // the cells stay apart.
    let (started, applied, rejected) = screened.recoveries();
    for (i, st) in screened.stats.iter().enumerate() {
        assert!(st.recoveries_started > 0, "S{} never recovered", i + 1);
    }
    assert_eq!(applied, 0, "a minority's value passed the screen");
    assert_eq!(rejected, started, "every recovery is refused");
    assert_eq!(screened.at(900.0), (3, 3), "the three cells must persist");

    println!();
    println!("partition into a majority {{S3..S6}} and a minority {{S1,S2}}");
    println!();
    println!("— with screened third-server recovery —");
    let majority = run(RecoveryPolicy::ThirdServer, &[&[0, 1], &[2, 3, 4, 5]]);
    let (_, applied, _) = majority.recoveries();
    assert_eq!(majority.at(349.0).1, 2, "partition must split the service");
    assert!(applied > 0, "the minority must adopt the majority's time");
    for t in [420.0, 600.0, 900.0] {
        assert_eq!(majority.at(t).1, 1, "a server is still cut off at {t}s");
    }
    println!();
    println!("the screen refuses a minority's time and admits the majority's ✓");
}
