//! The three workloads: their question sets, seeded schedules and the
//! services they run against.

use std::sync::Arc;

use nrab_algebra::{Database, QueryPlan};
use whynot_rng::rngs::StdRng;
use whynot_rng::{Rng, SeedableRng};
use whynot_scenarios::{dblp, tpch, twitter, Scenario};
use whynot_service::catalog::plan_fingerprint;
use whynot_service::{DbRef, ExplainRequest, ExplainService, PlanRef};

/// DBLP scale of `hot-dblp` and `http-dblp` (the loadgen default).
pub const HOT_DBLP_SCALE: usize = 120;
/// DBLP scale of `cold-paper` (largest point of Fig. 8).
pub const COLD_DBLP_SCALE: usize = 300;
/// Twitter scale of `cold-paper` (largest point of Fig. 9).
pub const COLD_TWITTER_SCALE: usize = 375;
/// `timeout_ms` every `http-dblp` request carries: generous enough never to
/// trip, so the guard is armed on every request without changing answers.
pub const HTTP_TIMEOUT_MS: u64 = 60_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process closed loop over DBLP D1–D5, warm trace cache.
    HotDblp,
    /// In-process closed loop over the largest paper scenarios, empty cache.
    ColdPaper,
    /// Over HTTP against the service's server, warm trace cache.
    HttpDblp,
}

impl Workload {
    /// All workloads, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::HotDblp, Workload::ColdPaper, Workload::HttpDblp];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotDblp => "hot-dblp",
            Workload::ColdPaper => "cold-paper",
            Workload::HttpDblp => "http-dblp",
        }
    }

    /// Client threads (in process) or keep-alive connections (HTTP).
    pub fn clients(self) -> usize {
        match self {
            Workload::HotDblp | Workload::HttpDblp => 2,
            Workload::ColdPaper => 1,
        }
    }

    /// `whynot-exec` pool width the engine runs at.
    pub fn pool_width(self) -> usize {
        match self {
            Workload::HotDblp | Workload::HttpDblp => 1,
            Workload::ColdPaper => nproc(),
        }
    }

    /// Whether every measured request must hit the trace cache (the
    /// cold workload must never hit it).
    pub fn warm_cache(self) -> bool {
        self != Workload::ColdPaper
    }

    /// The workload's questions, built from the scenario generators.
    pub fn questions(self) -> Vec<Question> {
        match self {
            Workload::HotDblp => dblp::all_dblp(HOT_DBLP_SCALE)
                .into_iter()
                .map(|s| Question::new(s, HOT_DBLP_SCALE, true, None))
                .collect(),
            Workload::HttpDblp => dblp::all_dblp(HOT_DBLP_SCALE)
                .into_iter()
                .map(|s| Question::new(s, HOT_DBLP_SCALE, true, Some(HTTP_TIMEOUT_MS)))
                .collect(),
            Workload::ColdPaper => {
                let tpch_scale = whynot_scenarios::tpch_scale();
                let mut scenarios: Vec<(Scenario, usize)> = Vec::new();
                scenarios.extend(
                    dblp::all_dblp(COLD_DBLP_SCALE).into_iter().map(|s| (s, COLD_DBLP_SCALE)),
                );
                scenarios.extend(
                    twitter::all_twitter(COLD_TWITTER_SCALE)
                        .into_iter()
                        .map(|s| (s, COLD_TWITTER_SCALE)),
                );
                for build in [tpch::q1, tpch::q3, tpch::q4, tpch::q6, tpch::q10, tpch::q13] {
                    scenarios.push((build(tpch_scale, false), tpch_scale));
                }
                let mut questions = Vec::with_capacity(2 * scenarios.len());
                for (scenario, scale) in scenarios {
                    questions.push(Question::new(scenario.clone(), scale, true, None));
                    questions.push(Question::new(scenario, scale, false, None));
                }
                questions
            }
        }
    }

    /// The seeded order in which `n` requests ask the `questions` questions.
    ///
    /// Every round asks each question once, in a fresh seeded order, so
    /// each question is equally likely at every position and any whole
    /// number of rounds covers exactly the same work, whatever the seed.
    pub fn schedule(self, seed: u64, questions: usize, n: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order = Vec::with_capacity(n + questions);
        while order.len() < n {
            let mut round: Vec<usize> = (0..questions).collect();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.gen_range(0..=i));
            }
            order.extend(round);
        }
        order.truncate(n);
        order
    }
}

/// One why-not question of a workload, with everything needed to answer it
/// through the service and to replay it stage by stage.
#[derive(Debug, Clone)]
pub struct Question {
    /// Pinned-digest key: `<scenario>@<scale>/<engine>`.
    pub key: String,
    /// Catalog name of the scenario's database and plan.
    pub name: String,
    /// The scenario's database.
    pub db: Arc<Database>,
    /// The scenario's plan.
    pub plan: Arc<QueryPlan>,
    /// Fingerprint of the plan, as the service's trace cache keys it.
    pub plan_fingerprint: u64,
    /// The catalog-addressed request the service answers.
    pub request: ExplainRequest,
}

impl Question {
    fn new(scenario: Scenario, scale: usize, rp: bool, timeout_ms: Option<u64>) -> Question {
        let engine = if rp { "rp" } else { "rp_no_sa" };
        let mut request = ExplainRequest::new(
            DbRef::Named(scenario.name.clone()),
            PlanRef::Named(scenario.name.clone()),
            scenario.why_not,
        )
        .with_alternatives(scenario.alternatives);
        request.use_schema_alternatives = rp;
        request.timeout_ms = timeout_ms;
        Question {
            key: format!("{}@{scale}/{engine}", scenario.name),
            name: scenario.name,
            db: Arc::new(scenario.db),
            plan_fingerprint: plan_fingerprint(&scenario.plan),
            plan: Arc::new(scenario.plan),
            request,
        }
    }
}

/// A service with the questions' databases and plans in its catalog and an
/// empty trace cache.
pub fn service_for(questions: &[Question]) -> ExplainService {
    let mut service = ExplainService::new();
    for question in questions {
        let catalog = service.catalog_mut();
        if catalog.database(&question.name).is_err() {
            catalog.register_database(question.name.clone(), Database::clone(&question.db));
            catalog.register_plan(question.name.clone(), QueryPlan::clone(&question.plan));
        }
    }
    service
}

/// Available parallelism of the host the benchmark runs on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
