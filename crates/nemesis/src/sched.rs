//! Domain scheduling (§3.3).
//!
//! Nemesis schedules domains "with a weighted scheduling discipline,
//! where the weights are calculated from the user's current policy".
//! Each domain holds a share — a *slice* of CPU time per *period*. While
//! domains have allocation remaining, "the current scheduler
//! implementation uses an earliest deadline first algorithm to select
//! between them"; leftover time (slack) is shared out among domains that
//! can exploit "unguaranteed resources which become available
//! fortuitously".
//!
//! This module implements that scheduler and the baselines the
//! experiments compare it against (round-robin and static priority, the
//! disciplines of contemporary Unix-ish kernels), driving them over a
//! synthetic periodic workload: each task releases a job of `work`
//! nanoseconds every `period`, which must complete before the next
//! release — the natural model of per-frame video and per-buffer audio
//! processing.

use pegasus_sim::stats::Histogram;
use pegasus_sim::time::Ns;

/// A CPU-time guarantee: `slice` nanoseconds in every `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Guaranteed CPU time per period.
    pub slice: Ns,
    /// The period over which the slice is guaranteed.
    pub period: Ns,
}

/// Scheduling disciplines the simulator can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The Nemesis scheduler: shares replenished per period, EDF among
    /// domains holding allocation, round-robin slack for the rest.
    NemesisEdf,
    /// Classic time-sliced round-robin with the given quantum.
    RoundRobin(Ns),
    /// Preemptive static priority (higher number wins).
    StaticPriority,
    /// EDF on job deadlines with no isolation (no shares) — what a naive
    /// "add deadlines to the kernel" design gives.
    PureEdf,
}

/// A periodic task offered to the scheduler.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// The guarantee the QoS manager granted (used by [`Policy::NemesisEdf`]).
    pub share: Share,
    /// Priority for [`Policy::StaticPriority`] (higher wins).
    pub priority: u32,
    /// Job release period.
    pub period: Ns,
    /// CPU demand per job.
    pub work: Ns,
    /// Whether the task will consume slack beyond its share.
    pub use_slack: bool,
    /// Release offset of the first job.
    pub phase: Ns,
}

impl TaskSpec {
    /// A periodic task whose share exactly covers its demand.
    pub fn guaranteed(name: &str, period: Ns, work: Ns) -> Self {
        TaskSpec {
            name: name.to_string(),
            share: Share {
                slice: work,
                period,
            },
            priority: 1,
            period,
            work,
            use_slack: false,
            phase: 0,
        }
    }

    /// A best-effort task: tiny share, lives off slack.
    pub fn best_effort(name: &str, period: Ns, work: Ns) -> Self {
        TaskSpec {
            name: name.to_string(),
            share: Share { slice: 0, period },
            priority: 0,
            period,
            work,
            use_slack: true,
            phase: 0,
        }
    }

    /// Builder: sets the static priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: sets an explicit share.
    pub fn with_share(mut self, slice: Ns, period: Ns) -> Self {
        self.share = Share { slice, period };
        self
    }
}

/// Per-task results of a scheduling run.
#[derive(Debug, Clone, Default)]
pub struct TaskStats {
    /// Jobs released.
    pub releases: u64,
    /// Jobs that completed before their deadline.
    pub completions: u64,
    /// Jobs dropped because the next release arrived first (a skipped
    /// frame, in media terms).
    pub misses: u64,
    /// Total CPU time received.
    pub cpu_received: Ns,
    /// Job response times (release → completion).
    pub response: Histogram,
}

impl TaskStats {
    /// Miss rate over released jobs.
    pub fn miss_rate(&self) -> f64 {
        if self.releases == 0 {
            0.0
        } else {
            self.misses as f64 / self.releases as f64
        }
    }
}

/// Whole-run results.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Per-task statistics, in task-insertion order.
    pub tasks: Vec<TaskStats>,
    /// Number of context switches performed.
    pub context_switches: u64,
    /// Time the CPU sat idle.
    pub idle: Ns,
    /// Time consumed by context-switch overhead.
    pub switch_overhead: Ns,
    /// Horizon the simulation ran to.
    pub horizon: Ns,
}

struct TaskState {
    spec: TaskSpec,
    next_release: Ns,
    work_left: Ns,
    released_at: Ns,
    // Nemesis share state.
    alloc_left: Ns,
    alloc_deadline: Ns,
    stats: TaskStats,
}

impl TaskState {
    fn runnable(&self) -> bool {
        self.work_left > 0
    }
}

/// The uniprocessor scheduling simulator.
///
/// # Examples
///
/// ```
/// use pegasus_nemesis::sched::{CpuSim, Policy, TaskSpec};
/// use pegasus_sim::time::MS;
///
/// let mut sim = CpuSim::new(Policy::NemesisEdf);
/// sim.add_task(TaskSpec::guaranteed("video", 40 * MS, 10 * MS));
/// sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 2 * MS));
/// let result = sim.run(10_000 * MS);
/// assert_eq!(result.tasks[0].misses, 0);
/// assert_eq!(result.tasks[1].misses, 0);
/// ```
pub struct CpuSim {
    policy: Policy,
    tasks: Vec<TaskSpec>,
    /// Cost charged on every switch between different tasks.
    pub ctx_cost: Ns,
    /// Quantum granted to a slack-mode or round-robin run.
    pub slack_quantum: Ns,
}

impl CpuSim {
    /// Creates a simulator for the given policy.
    pub fn new(policy: Policy) -> Self {
        CpuSim {
            policy,
            tasks: Vec::new(),
            ctx_cost: 0,
            slack_quantum: 1_000_000, // 1 ms
        }
    }

    /// Adds a task; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the task's release period or share period is zero.
    pub fn add_task(&mut self, spec: TaskSpec) -> usize {
        assert!(spec.period > 0, "release period must be positive");
        assert!(spec.share.period > 0, "share period must be positive");
        self.tasks.push(spec);
        self.tasks.len() - 1
    }

    /// Runs the simulation to `horizon` and returns the statistics.
    pub fn run(&self, horizon: Ns) -> SimResult {
        let mut states: Vec<TaskState> = self
            .tasks
            .iter()
            .map(|spec| TaskState {
                next_release: spec.phase,
                work_left: 0,
                released_at: 0,
                alloc_left: 0,
                alloc_deadline: spec.phase,
                spec: spec.clone(),
                stats: TaskStats::default(),
            })
            .collect();
        let mut result = SimResult {
            horizon,
            ..Default::default()
        };
        if states.is_empty() {
            result.idle = horizon;
            return result;
        }

        let mut now: Ns = 0;
        let mut current: Option<usize> = None;
        let mut rr_cursor = 0usize;

        while now < horizon {
            // Release due jobs; count drops of unfinished predecessors.
            for st in states.iter_mut() {
                while st.next_release <= now {
                    if st.work_left > 0 {
                        st.stats.misses += 1;
                        st.work_left = 0;
                    }
                    st.stats.releases += 1;
                    st.work_left = st.spec.work;
                    st.released_at = st.next_release;
                    st.next_release += st.spec.period;
                }
                // Replenish Nemesis shares whose period boundary passed.
                if self.policy == Policy::NemesisEdf && st.alloc_deadline <= now {
                    st.alloc_left = st.spec.share.slice;
                    st.alloc_deadline = now + st.spec.share.period;
                }
            }

            // Pick the next task per policy.
            let pick = self.pick(&states, &mut rr_cursor);

            // Next decision boundary independent of the chosen task.
            let next_release = states
                .iter()
                .map(|s| s.next_release)
                .min()
                .expect("tasks exist");
            let next_replenish = if self.policy == Policy::NemesisEdf {
                states
                    .iter()
                    .filter(|s| s.runnable() || s.next_release < horizon)
                    .map(|s| s.alloc_deadline)
                    .filter(|&d| d > now)
                    .min()
                    .unwrap_or(Ns::MAX)
            } else {
                Ns::MAX
            };

            let Some((idx, budget)) = pick else {
                // Idle until something is released or replenished.
                let wake = next_release.min(next_replenish).min(horizon);
                result.idle += wake - now;
                now = wake;
                continue;
            };

            // Charge a context switch when the running task changes.
            if current != Some(idx) {
                if current.is_some() {
                    result.context_switches += 1;
                    let overhead = self.ctx_cost.min(horizon - now);
                    result.switch_overhead += overhead;
                    now += overhead;
                }
                current = Some(idx);
                if now >= horizon {
                    break;
                }
            }

            let st = &mut states[idx];
            let run = st
                .work_left
                .min(budget)
                .min(next_release.saturating_sub(now))
                .min(next_replenish.saturating_sub(now))
                .min(horizon - now);
            if run == 0 {
                // Boundary coincides with now; loop re-evaluates releases.
                now = now.max(next_release.min(next_replenish).min(horizon));
                continue;
            }
            now += run;
            st.work_left -= run;
            st.stats.cpu_received += run;
            if self.policy == Policy::NemesisEdf {
                st.alloc_left = st.alloc_left.saturating_sub(run);
            }
            if st.work_left == 0 {
                st.stats.completions += 1;
                st.stats.response.record(now - st.released_at);
            }
        }

        result.tasks = states.into_iter().map(|s| s.stats).collect();
        result
    }

    /// Policy dispatch: returns (task index, budget for this run).
    fn pick(&self, states: &[TaskState], rr_cursor: &mut usize) -> Option<(usize, Ns)> {
        match self.policy {
            Policy::NemesisEdf => {
                // Guaranteed phase: EDF among domains holding allocation.
                let winner = states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.runnable() && s.alloc_left > 0)
                    .min_by_key(|(i, s)| (s.alloc_deadline, *i));
                if let Some((i, s)) = winner {
                    return Some((i, s.alloc_left));
                }
                // Slack phase: round-robin among slack-eligible domains.
                self.rr_pick(states, rr_cursor, |s| s.runnable() && s.spec.use_slack)
                    .map(|i| (i, self.slack_quantum))
            }
            Policy::RoundRobin(quantum) => self
                .rr_pick(states, rr_cursor, |s| s.runnable())
                .map(|i| (i, quantum)),
            Policy::StaticPriority => states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.runnable())
                .max_by_key(|(i, s)| (s.spec.priority, usize::MAX - *i))
                .map(|(i, _)| (i, Ns::MAX)),
            Policy::PureEdf => states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.runnable())
                .min_by_key(|(i, s)| (s.released_at + s.spec.period, *i))
                .map(|(i, _)| (i, Ns::MAX)),
        }
    }

    fn rr_pick<F: Fn(&TaskState) -> bool>(
        &self,
        states: &[TaskState],
        cursor: &mut usize,
        eligible: F,
    ) -> Option<usize> {
        let n = states.len();
        for k in 0..n {
            let i = (*cursor + k) % n;
            if eligible(&states[i]) {
                *cursor = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_sim::time::MS;

    const HORIZON: Ns = 4_000 * MS;

    #[test]
    fn single_task_never_misses() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec::guaranteed("video", 40 * MS, 15 * MS));
        let r = sim.run(HORIZON);
        assert_eq!(r.tasks[0].misses, 0);
        assert_eq!(r.tasks[0].releases, 100);
        assert_eq!(r.tasks[0].completions, 100);
    }

    #[test]
    fn feasible_set_all_meet_deadlines() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec::guaranteed("video", 40 * MS, 20 * MS));
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 2 * MS));
        sim.add_task(TaskSpec::guaranteed("mixer", 20 * MS, 4 * MS));
        let r = sim.run(HORIZON);
        for (i, t) in r.tasks.iter().enumerate() {
            assert_eq!(t.misses, 0, "task {i} missed");
        }
    }

    #[test]
    fn guaranteed_isolated_from_overload() {
        // A greedy best-effort hog cannot hurt the guaranteed task.
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS));
        sim.add_task(TaskSpec::best_effort("hog", 10 * MS, 100 * MS));
        let r = sim.run(HORIZON);
        assert_eq!(r.tasks[0].misses, 0, "guaranteed task must not miss");
        assert!(r.tasks[1].misses > 0, "the hog must be the one to suffer");
    }

    #[test]
    fn round_robin_lets_hogs_hurt_everyone() {
        // Under round-robin, each of N runnable tasks gets 1/N of the
        // CPU; three hogs squeeze the audio task below its 30 % demand.
        let mut sim = CpuSim::new(Policy::RoundRobin(MS));
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS));
        for i in 0..3 {
            sim.add_task(TaskSpec::best_effort(&format!("hog{i}"), 10 * MS, 100 * MS));
        }
        let r = sim.run(HORIZON);
        assert!(
            r.tasks[0].misses > 0,
            "round robin cannot protect the audio task"
        );
    }

    #[test]
    fn static_priority_protects_only_the_top() {
        let mut sim = CpuSim::new(Policy::StaticPriority);
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS).with_priority(10));
        sim.add_task(TaskSpec::guaranteed("video", 40 * MS, 30 * MS).with_priority(9));
        sim.add_task(TaskSpec::best_effort("hog", 10 * MS, 100 * MS).with_priority(8));
        let r = sim.run(HORIZON);
        assert_eq!(r.tasks[0].misses, 0);
        // Priority inversion of demand: hog never runs, but video is fine
        // here; the failure mode appears when a *high*-priority hog exists.
        let mut sim2 = CpuSim::new(Policy::StaticPriority);
        sim2.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS).with_priority(5));
        sim2.add_task(TaskSpec::best_effort("hog", 10 * MS, 100 * MS).with_priority(10));
        let r2 = sim2.run(HORIZON);
        assert!(r2.tasks[0].misses > 0, "misplaced priority starves audio");
    }

    #[test]
    fn slack_lets_best_effort_finish_when_idle() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, MS));
        // Demands 5 ms/10 ms but has no share: pure slack consumer.
        sim.add_task(TaskSpec::best_effort("batch", 10 * MS, 5 * MS));
        let r = sim.run(HORIZON);
        assert_eq!(r.tasks[1].misses, 0, "plenty of slack available");
        assert!(r.tasks[1].completions > 0);
    }

    #[test]
    fn non_slack_task_does_not_exceed_share() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        // Wants 8 ms/10 ms but is only guaranteed 4 ms and refuses slack.
        sim.add_task(TaskSpec::guaranteed("greedy", 10 * MS, 8 * MS).with_share(4 * MS, 10 * MS));
        let r = sim.run(1_000 * MS);
        // Gets exactly its share.
        assert_eq!(r.tasks[0].cpu_received, 400 * MS);
        assert_eq!(r.tasks[0].completions, 0);
    }

    #[test]
    fn cpu_shares_proportional_under_saturation() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        // Both want the whole CPU; shares 60/40.
        sim.add_task(TaskSpec::guaranteed("a", 10 * MS, 10 * MS).with_share(6 * MS, 10 * MS));
        sim.add_task(TaskSpec::guaranteed("b", 10 * MS, 10 * MS).with_share(4 * MS, 10 * MS));
        let r = sim.run(1_000 * MS);
        let a = r.tasks[0].cpu_received as f64;
        let b = r.tasks[1].cpu_received as f64;
        let ratio = a / b;
        assert!((ratio - 1.5).abs() < 0.05, "ratio={ratio}");
        assert_eq!(r.idle, 0);
    }

    #[test]
    fn edf_runs_tighter_deadline_first() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec::guaranteed("long", 100 * MS, 50 * MS));
        sim.add_task(TaskSpec::guaranteed("short", 10 * MS, 2 * MS));
        let mut r = sim.run(HORIZON);
        // The short-period task's response time stays near its work size
        // because EDF favours its earlier deadlines.
        let p99 = r.tasks[1].response.percentile(99.0).unwrap();
        assert!(p99 <= 10 * MS, "p99={p99}");
        assert_eq!(r.tasks[1].misses, 0);
    }

    #[test]
    fn context_switch_overhead_accounted() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.ctx_cost = 10_000; // 10 µs
        sim.add_task(TaskSpec::guaranteed("a", 10 * MS, 3 * MS));
        sim.add_task(TaskSpec::guaranteed("b", 10 * MS, 3 * MS));
        let r = sim.run(1_000 * MS);
        assert!(r.context_switches > 0);
        assert_eq!(r.switch_overhead, r.context_switches * 10_000);
    }

    #[test]
    fn phases_offset_first_release() {
        let mut sim = CpuSim::new(Policy::NemesisEdf);
        sim.add_task(TaskSpec {
            phase: 5 * MS,
            ..TaskSpec::guaranteed("a", 10 * MS, MS)
        });
        let r = sim.run(100 * MS);
        // Releases at 5,15,...,95 → 10 releases.
        assert_eq!(r.tasks[0].releases, 10);
    }

    #[test]
    fn empty_simulation_is_all_idle() {
        let sim = CpuSim::new(Policy::NemesisEdf);
        let r = sim.run(1_000);
        assert_eq!(r.idle, 1_000);
        assert!(r.tasks.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut sim = CpuSim::new(Policy::NemesisEdf);
            sim.add_task(TaskSpec {
                use_slack: true,
                ..TaskSpec::guaranteed("v", 40 * MS, 17 * MS)
            });
            sim.add_task(TaskSpec::guaranteed("a", 10 * MS, 2 * MS));
            sim.add_task(TaskSpec::best_effort("be", 25 * MS, 30 * MS));
            sim.run(HORIZON)
        };
        let r1 = build();
        let r2 = build();
        for (a, b) in r1.tasks.iter().zip(&r2.tasks) {
            assert_eq!(a.cpu_received, b.cpu_received);
            assert_eq!(a.misses, b.misses);
            assert_eq!(a.completions, b.completions);
        }
        assert_eq!(r1.context_switches, r2.context_switches);
    }

    #[test]
    fn pure_edf_collapses_under_overload() {
        // Without shares, an overloaded EDF system thrashes: the paper's
        // point that deadlines alone are not isolation.
        let mut sim = CpuSim::new(Policy::PureEdf);
        sim.add_task(TaskSpec::guaranteed("audio", 10 * MS, 3 * MS));
        sim.add_task(TaskSpec::guaranteed("hog", 9 * MS, 12 * MS));
        let r = sim.run(HORIZON);
        assert!(r.tasks[0].misses > 0, "pure EDF gives no isolation");
    }
}
