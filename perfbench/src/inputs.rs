//! Workload inputs, generated from the seed and never timed.
//!
//! Every request is encoded to its wire bytes up front together with the
//! response bodies the output oracle accepts for it, so the load
//! generator only writes, reads and compares.

use crate::stats::{median, quantile, Fnv};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use retroweb_html::{parse, Document};
use retroweb_json::Json;
use retroweb_sitegen::{
    drift_movie, movie, news, products, Drift, GroundTruth, Layout, MovieSiteSpec, NewsSiteSpec,
    ProductSiteSpec, MOVIE_COMPONENTS, NEWS_COMPONENTS, PRODUCT_COMPONENTS,
};
use retrozilla::{
    build_rules, extract_cluster_compiled, extract_cluster_compiled_to, sample_from_pages,
    ClusterRules, CompiledCluster, ExtractionSink, JsonLinesSink, RuleRepository, ScenarioConfig,
    SimulatedUser, XmlWriterSink,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// Pages in the builder's working sample (§3.1: "about ten").
pub const SAMPLE_PAGES: usize = 10;
/// Seed of every working sample. Rule sets are part of the benchmark's
/// definition, so every run seed measures the same rules; the run seed
/// draws the pages the load sends.
const SAMPLE_SEED: u64 = 0x5EED_2006;
/// Pages per `listing_batch` request.
pub const BATCH_PAGES: usize = 64;
/// Clusters in the `rule_churn` repository, and how many of them the
/// author rewrites.
pub const CHURN_CLUSTERS: usize = 2000;
pub const CHURN_HOT: usize = 16;
/// Mutations left in the `rule_churn` write-ahead log, replayed at set-up.
/// Below the server's default compaction interval (1024), so the log is
/// still a tail when the server starts.
pub const CHURN_WAL_TAIL: usize = 600;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DetailPages,
    ListingBatch,
    RuleChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::DetailPages, Workload::ListingBatch, Workload::RuleChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetailPages => "detail_pages",
            Workload::ListingBatch => "listing_batch",
            Workload::RuleChurn => "rule_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One cluster the workload addresses. Hot `rule_churn` clusters carry
/// two rule versions (original site, drifted twin); the others one.
pub struct Cluster {
    pub name: String,
    pub versions: Vec<ClusterRules>,
    pub compiled: Vec<Arc<CompiledCluster>>,
    /// `PUT /clusters/{name}` body for each version.
    pub docs: Vec<String>,
    /// Components the builder did not converge on (left out of the rules).
    pub nonconverged: Vec<String>,
}

pub struct Page {
    pub uri: String,
    pub html: String,
    pub truth: GroundTruth,
    /// Part of the builder's working sample for its cluster.
    pub in_sample: bool,
    /// The cluster whose site generated this page (its ground truth
    /// applies under that cluster's rules).
    pub site_cluster: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Extract,
    Batch { ndjson: bool },
    Put,
}

/// A response body the oracle accepts, and the §7 failures the server
/// reports for it.
pub struct Expected {
    pub body: Vec<u8>,
    pub failures: usize,
}

pub struct Request {
    pub kind: Kind,
    pub cluster: usize,
    pub pages: Vec<usize>,
    /// Rule version a `PUT` writes.
    pub version: usize,
    pub bytes: Vec<u8>,
    /// Accepted bodies: one per live rule version (empty for `PUT`,
    /// whose reply is checked structurally).
    pub expect: Vec<Expected>,
}

/// What one load-generator client sends, cycled in order.
pub struct ClientPlan {
    pub role: &'static str,
    pub sequence: Vec<usize>,
    /// Think time: the client sends at most one request per `pace`
    /// (still waiting for each reply). `None` sends back to back.
    pub pace: Option<std::time::Duration>,
}

/// The `rule_churn` author's pace: 100 `PUT`s a second. Back to back,
/// the author's share of the two CPUs would follow the host's fsync
/// latency (fast fsyncs, more PUTs, fewer pages extracted), and the
/// extractor's throughput with it.
pub const AUTHOR_PACE: std::time::Duration = std::time::Duration::from_millis(10);

/// The on-disk repository the server is started on.
pub struct RepoSeed {
    pub snapshot: RuleRepository,
    /// Mutations appended to the write-ahead log after the snapshot.
    pub wal_tail: Vec<ClusterRules>,
}

pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub clusters: Vec<Cluster>,
    pub pages: Vec<Page>,
    pub requests: Vec<Request>,
    pub clients: Vec<ClientPlan>,
    /// One extraction per workload cluster, exact for the state the
    /// server starts in: set-up ends when all of them answer correctly.
    pub probes: Vec<usize>,
    /// `PUT`s of the workload's own rules, sent after the load window on
    /// workloads whose load has no author (their `put_p50_ms`).
    pub publish: Vec<usize>,
    pub repo: RepoSeed,
}

fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Run the §3 builder (`build_rules` + `SimulatedUser`) over a working
/// sample. Components that do not converge are recorded, not replaced.
fn build_cluster(
    name: &str,
    page_element: &str,
    components: &[&str],
    sample: Vec<retroweb_sitegen::Page>,
) -> (ClusterRules, Vec<String>) {
    let sample = sample_from_pages(sample);
    let mut user = SimulatedUser::new();
    let reports = build_rules(components, &sample, &mut user, &ScenarioConfig::default());
    let mut rules = ClusterRules::new(name, page_element);
    let mut nonconverged = Vec::new();
    for c in components {
        match reports.iter().find(|r| r.component == *c) {
            Some(r) if r.ok => rules.rules.push(r.rule.clone()),
            Some(_) => nonconverged.push(c.to_string()),
            None => nonconverged.push(format!("{c} (no instance in sample)")),
        }
    }
    (rules, nonconverged)
}

fn renamed(rules: &ClusterRules, name: &str) -> ClusterRules {
    ClusterRules { cluster: name.to_string(), ..rules.clone() }
}

fn cluster_of(versions: Vec<ClusterRules>, nonconverged: Vec<String>) -> Cluster {
    let compiled = versions.iter().map(|r| Arc::new(r.compile())).collect();
    let docs = versions.iter().map(|r| r.to_json().to_string_compact()).collect();
    Cluster { name: versions[0].cluster.clone(), versions, compiled, docs, nonconverged }
}

// ---- detail-page boilerplate ------------------------------------------

const FILLER: &[&str] = &[
    "lorem",
    "ipsum",
    "dolor",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
    "tempor",
    "incididunt",
    "labore",
    "magna",
    "aliqua",
    "veniam",
    "nostrud",
    "ullamco",
    "laboris",
    "commodo",
    "consequat",
];

fn filler(rng: &mut SmallRng, words: usize) -> String {
    let mut s = String::new();
    for i in 0..words {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(FILLER[rng.gen_range(0..FILLER.len())]);
    }
    s
}

/// Page chrome plan: `(target bytes, layout-table nesting)` per page,
/// stratified so every run seed gets the same size and depth
/// distribution (in its own order): sizes log-normal around 25 KB
/// (clamped to 8–60 KB), and exactly one page in ten under 30–100
/// nested layout tables, the deep tail; the rest under 1–4.
fn chrome_plan(n: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
    let deep = n / 10;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            // Logistic approximation of the standard normal quantile.
            let z = (u / (1.0 - u)).ln() / 1.702;
            (25_000.0 * (0.45 * z).exp()).clamp(8_000.0, 60_000.0) as usize
        })
        .collect();
    let mut nesting: Vec<usize> =
        (0..n).map(|i| if i < deep { 30 + 70 * i / deep.max(1) } else { 1 + i % 4 }).collect();
    shuffle(&mut sizes, rng);
    shuffle(&mut nesting, rng);
    sizes.into_iter().zip(nesting).collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Wrap a sitegen page in site chrome: a navigation list, the page body
/// nested inside `nesting` layout tables, related items up to `target`
/// bytes, and a footer.
fn wrap_page(html: &str, (target, nesting): (usize, usize), rng: &mut SmallRng) -> String {
    let body_start = html.find("<body>").map(|i| i + "<body>".len()).expect("sitegen body");
    let body_end = html.rfind("</body>").expect("sitegen body end");

    let mut out = String::with_capacity(target + 4096);
    out.push_str(&html[..body_start]);
    out.push_str("\n<div id=\"site-nav\"><ul class=\"nav\">");
    for i in 0..rng.gen_range(12..=30usize) {
        let _ = write!(out, "<li><a href=\"/section/{i}\">Section {i} {}</a></li>", filler(rng, 1));
    }
    out.push_str("</ul></div>\n");
    for _ in 0..nesting {
        out.push_str("<table class=\"layout\"><tr><td class=\"col\">");
    }
    out.push_str(&html[body_start..body_end]);
    for _ in 0..nesting {
        out.push_str("</td></tr></table>");
    }
    out.push_str("\n<div id=\"related\"><h4>Related</h4>\n");
    let mut item = 0;
    while out.len() + 400 < target {
        let _ = writeln!(
            out,
            "<div class=\"rel\"><a href=\"/story/{item}\">Story {item}: {}</a>\
             <span class=\"blurb\">{}</span></div>",
            filler(rng, 3),
            filler(rng, 9)
        );
        item += 1;
    }
    out.push_str("</div>\n<div id=\"site-footer\"><ul>");
    for i in 0..8 {
        let _ = write!(out, "<li><a href=\"/about/{i}\">About {}</a></li>", filler(rng, 1));
    }
    out.push_str("</ul></div>\n");
    out.push_str(&html[body_end..]);
    out
}

// ---- request encoding -------------------------------------------------

fn encode(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: loopback\r\n");
    for (k, v) in headers {
        let _ = write!(head, "{k}: {v}\r\n");
    }
    let _ = write!(head, "content-length: {}\r\n\r\n", body.len());
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// The single-page response body: the server's in-process extraction of
/// that page, serialised as `POST /extract/{c}` does.
pub fn expect_single(compiled: &CompiledCluster, uri: &str, doc: Document) -> Expected {
    let result = extract_cluster_compiled(compiled, &[(uri.to_string(), doc)]);
    Expected { body: result.xml.to_string_with(2).into_bytes(), failures: result.failures.len() }
}

/// The batch response body: the sink output of an in-process extraction.
pub fn expect_batch(
    compiled: &CompiledCluster,
    docs: &[(String, Document)],
    ndjson: bool,
) -> Expected {
    let mut body = Vec::new();
    let stats = if ndjson {
        let mut sink = JsonLinesSink::new(&mut body);
        extract_cluster_compiled_to(compiled, docs, &mut sink as &mut dyn ExtractionSink)
    } else {
        let mut sink = XmlWriterSink::new(&mut body);
        extract_cluster_compiled_to(compiled, docs, &mut sink as &mut dyn ExtractionSink)
    }
    .expect("in-memory sink");
    Expected { body, failures: stats.failures }
}

fn extract_request(inputs: &Inputs, cluster: usize, page: usize, versions: &[usize]) -> Request {
    let c = &inputs.clusters[cluster];
    let p = &inputs.pages[page];
    let bytes = encode(
        "POST",
        &format!("/extract/{}", c.name),
        &[("x-page-uri", &p.uri)],
        p.html.as_bytes(),
    );
    let expect =
        versions.iter().map(|&v| expect_single(&c.compiled[v], &p.uri, parse(&p.html))).collect();
    Request { kind: Kind::Extract, cluster, pages: vec![page], version: 0, bytes, expect }
}

fn batch_request(inputs: &Inputs, cluster: usize, pages: Vec<usize>, ndjson: bool) -> Request {
    let c = &inputs.clusters[cluster];
    let items = pages
        .iter()
        .map(|&i| {
            let p = &inputs.pages[i];
            Json::object(vec![
                ("uri".to_string(), Json::from(p.uri.as_str())),
                ("html".to_string(), Json::from(p.html.as_str())),
            ])
        })
        .collect();
    let body = Json::Array(items).to_string_compact();
    let mut headers = vec![("content-type", "application/json")];
    if ndjson {
        headers.push(("accept", "application/x-ndjson"));
    }
    let bytes = encode("POST", &format!("/extract/{}/batch", c.name), &headers, body.as_bytes());
    let docs: Vec<(String, Document)> = pages
        .iter()
        .map(|&i| (inputs.pages[i].uri.clone(), parse(&inputs.pages[i].html)))
        .collect();
    let expect = vec![expect_batch(&c.compiled[0], &docs, ndjson)];
    Request { kind: Kind::Batch { ndjson }, cluster, pages, version: 0, bytes, expect }
}

fn put_request(inputs: &Inputs, cluster: usize, version: usize) -> Request {
    let c = &inputs.clusters[cluster];
    let bytes = encode(
        "PUT",
        &format!("/clusters/{}", c.name),
        &[("content-type", "application/json")],
        c.docs[version].as_bytes(),
    );
    Request { kind: Kind::Put, cluster, pages: Vec::new(), version, bytes, expect: Vec::new() }
}

fn push_site(
    pages: &mut Vec<Page>,
    site: retroweb_sitegen::Site,
    cluster: usize,
    in_sample: bool,
    chrome: Option<&mut SmallRng>,
) {
    let mut chrome = chrome.map(|rng| (chrome_plan(site.pages.len(), rng), rng));
    for (i, p) in site.pages.into_iter().enumerate() {
        let html = match &mut chrome {
            Some((plan, rng)) => wrap_page(&p.html, plan[i], rng),
            None => p.html,
        };
        pages.push(Page { uri: p.url, html, truth: p.truth, in_sample, site_cluster: cluster });
    }
}

fn sample_of(pages: &[Page], cluster: usize, name: &str) -> Vec<retroweb_sitegen::Page> {
    pages
        .iter()
        .filter(|p| p.site_cluster == cluster && p.in_sample)
        .map(|p| retroweb_sitegen::Page {
            url: p.uri.clone(),
            html: p.html.clone(),
            truth: p.truth.clone(),
            cluster: name.to_string(),
        })
        .collect()
}

/// Page count per site; `short` shrinks every workload for the
/// benchmark's own tests.
fn site_pages(short: bool, full: usize) -> usize {
    if short {
        SAMPLE_PAGES + 6
    } else {
        full
    }
}

pub fn generate(workload: Workload, seed: u64, short: bool) -> Inputs {
    let mut inputs = Inputs {
        workload,
        seed,
        clusters: Vec::new(),
        pages: Vec::new(),
        requests: Vec::new(),
        clients: Vec::new(),
        probes: Vec::new(),
        publish: Vec::new(),
        repo: RepoSeed { snapshot: RuleRepository::new(), wal_tail: Vec::new() },
    };
    match workload {
        Workload::DetailPages => detail_pages(&mut inputs, short),
        Workload::ListingBatch => listing_batch(&mut inputs, short),
        Workload::RuleChurn => rule_churn(&mut inputs, short),
    }
    inputs
}

/// Build each site's rules from its working sample and register the
/// cluster (single rule version).
fn build_sites(inputs: &mut Inputs, specs: &[(&str, &str, &[&str])]) {
    for (i, (name, element, components)) in specs.iter().enumerate() {
        let (rules, nonconverged) =
            build_cluster(name, element, components, sample_of(&inputs.pages, i, name));
        inputs.clusters.push(cluster_of(vec![rules], nonconverged));
    }
}

/// The repository, set-up probes and rule publishing of a workload whose
/// load is extraction.
fn finish_extraction_workload(inputs: &mut Inputs) {
    for c in 0..inputs.clusters.len() {
        inputs.repo.snapshot.record(inputs.clusters[c].versions[0].clone());
        let page = inputs.pages.iter().position(|p| p.site_cluster == c).expect("site pages");
        let probe = extract_request(inputs, c, page, &[0]);
        inputs.probes.push(inputs.requests.len());
        inputs.requests.push(probe);
        let put = put_request(inputs, c, 0);
        inputs.publish.push(inputs.requests.len());
        inputs.requests.push(put);
    }
}

fn detail_pages(inputs: &mut Inputs, short: bool) {
    let seed = inputs.seed;
    let n = site_pages(short, 128);
    let rows =
        |seed, n_pages| MovieSiteSpec { n_pages, seed, layout: Layout::Rows, ..Default::default() };
    let flat = |seed: u64, n_pages| MovieSiteSpec {
        n_pages,
        seed: seed ^ 0x51,
        layout: Layout::Flat,
        wrapper_depth: 2,
        ..Default::default()
    };
    let shop =
        |seed: u64, n_pages| ProductSiteSpec { n_pages, seed: seed ^ 0x52, ..Default::default() };
    let sites = |seed, n_pages| {
        [
            movie::generate(&rows(seed, n_pages)),
            movie::generate(&flat(seed, n_pages)),
            products::generate(&shop(seed, n_pages)),
        ]
    };
    let mut chrome = rng_for(SAMPLE_SEED, 1);
    for (c, site) in sites(SAMPLE_SEED, SAMPLE_PAGES).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, true, Some(&mut chrome));
    }
    let mut chrome = rng_for(seed, 1);
    for (c, site) in sites(seed, n).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, false, Some(&mut chrome));
    }
    build_sites(
        inputs,
        &[
            ("movies-rows", "movie", MOVIE_COMPONENTS),
            ("movies-flat", "movie", MOVIE_COMPONENTS),
            ("shop-products", "product", PRODUCT_COMPONENTS),
        ],
    );
    for page in 0..inputs.pages.len() {
        let req = extract_request(inputs, inputs.pages[page].site_cluster, page, &[0]);
        inputs.requests.push(req);
    }
    let distinct = inputs.pages.len();
    for (c, role) in ["reader-0", "reader-1"].into_iter().enumerate() {
        let mut rng = rng_for(seed, 10 + c as u64);
        let sequence = (0..8192).map(|_| rng.gen_range(0..distinct)).collect();
        inputs.clients.push(ClientPlan { role, sequence, pace: None });
    }
    finish_extraction_workload(inputs);
}

fn listing_batch(inputs: &mut Inputs, short: bool) {
    let seed = inputs.seed;
    let n = site_pages(short, 512);
    let sites = |seed: u64, n_pages| {
        let shop = ProductSiteSpec { n_pages, seed, ..Default::default() };
        let ledger = NewsSiteSpec {
            n_pages,
            seed: seed ^ 0x61,
            paragraphs: (1, 2),
            comments: (0, 2),
            ..Default::default()
        };
        [products::generate(&shop), news::generate(&ledger)]
    };
    for (c, site) in sites(SAMPLE_SEED, SAMPLE_PAGES).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, true, None);
    }
    for (c, site) in sites(seed, n).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, false, None);
    }
    build_sites(
        inputs,
        &[
            ("shop-listing", "product", PRODUCT_COMPONENTS),
            ("news-listing", "article", NEWS_COMPONENTS),
        ],
    );
    // 16 distinct batches per (cluster, sink) pair; requests alternate
    // sinks and clusters.
    let mut rng = rng_for(seed, 2);
    let per_combo = if short { 2 } else { 16 };
    let mut by_combo: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for (combo, slots) in by_combo.iter_mut().enumerate() {
        let (cluster, ndjson) = (combo / 2, combo % 2 == 1);
        let site: Vec<usize> =
            (0..inputs.pages.len()).filter(|&i| inputs.pages[i].site_cluster == cluster).collect();
        for _ in 0..per_combo {
            let pages = (0..BATCH_PAGES).map(|_| site[rng.gen_range(0..site.len())]).collect();
            let req = batch_request(inputs, cluster, pages, ndjson);
            slots.push(inputs.requests.len());
            inputs.requests.push(req);
        }
    }
    for (c, role) in ["batcher-0", "batcher-1"].into_iter().enumerate() {
        let mut rng = rng_for(seed, 20 + c as u64);
        let sequence = (0..4096)
            .map(|i| {
                // ndjson alternates every request, the cluster every two.
                let combo = (i / 2 % 2) * 2 + (i + c) % 2;
                by_combo[combo][rng.gen_range(0..by_combo[combo].len())]
            })
            .collect();
        inputs.clients.push(ClientPlan { role, sequence, pace: None });
    }
    finish_extraction_workload(inputs);
}

fn rule_churn(inputs: &mut Inputs, short: bool) {
    let seed = inputs.seed;
    let n = site_pages(short, 256);
    let sites = |seed, n_pages| {
        let base = MovieSiteSpec { n_pages, seed, layout: Layout::Rows, ..Default::default() };
        let twin = drift_movie(&base, Drift::Redesign);
        [movie::generate(&base), movie::generate(&twin)]
    };
    for (c, site) in sites(SAMPLE_SEED, SAMPLE_PAGES).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, true, None);
    }
    for (c, site) in sites(seed, n).into_iter().enumerate() {
        push_site(&mut inputs.pages, site, c, false, None);
    }
    let (original, nc_a) =
        build_cluster("hot-00", "movie", MOVIE_COMPONENTS, sample_of(&inputs.pages, 0, "hot-00"));
    let (drifted, nc_b) =
        build_cluster("hot-00", "movie", MOVIE_COMPONENTS, sample_of(&inputs.pages, 1, "hot-00"));
    let mut nonconverged: Vec<String> = nc_a.iter().map(|c| format!("{c} (original)")).collect();
    nonconverged.extend(nc_b.iter().map(|c| format!("{c} (drifted twin)")));
    // Cold clusters reuse builder output from other sites under their own
    // names; the server cannot tell them apart from hand-recorded ones.
    let shop_sample =
        ProductSiteSpec { n_pages: SAMPLE_PAGES, seed: SAMPLE_SEED ^ 0x71, ..Default::default() };
    let (shop, _) = build_cluster(
        "cold",
        "product",
        PRODUCT_COMPONENTS,
        products::generate(&shop_sample).pages,
    );
    let news_sample =
        NewsSiteSpec { n_pages: SAMPLE_PAGES, seed: SAMPLE_SEED ^ 0x72, ..Default::default() };
    let (ledger, _) =
        build_cluster("cold", "article", NEWS_COMPONENTS, news::generate(&news_sample).pages);
    let pool = [&original, &drifted, &shop, &ledger];
    for h in 0..CHURN_HOT {
        let name = format!("hot-{h:02}");
        let versions = vec![renamed(&original, &name), renamed(&drifted, &name)];
        inputs.clusters.push(cluster_of(versions, nonconverged.clone()));
    }
    let mut rng = rng_for(seed, 3);
    let cold: Vec<ClusterRules> = (CHURN_HOT..CHURN_CLUSTERS)
        .map(|i| renamed(pool[rng.gen_range(0..pool.len())], &format!("site-{i:04}")))
        .collect();
    for c in &inputs.clusters {
        inputs.repo.snapshot.record(c.versions[0].clone());
    }
    for rules in &cold {
        inputs.repo.snapshot.record(rules.clone());
    }
    // The WAL tail: earlier authoring sessions, both on hot clusters
    // (flipping their versions) and on cold ones.
    let mut version = [0usize; CHURN_HOT];
    let tail = if short { 40 } else { CHURN_WAL_TAIL };
    for _ in 0..tail {
        if rng.gen_bool(0.5) {
            let h = rng.gen_range(0..CHURN_HOT);
            version[h] ^= 1;
            inputs.repo.wal_tail.push(inputs.clusters[h].versions[version[h]].clone());
        } else {
            inputs.repo.wal_tail.push(cold[rng.gen_range(0..cold.len())].clone());
        }
    }

    let mut extracts = Vec::new();
    let per_page_clusters = if short { 1 } else { 2 };
    for page in 0..inputs.pages.len() {
        for _ in 0..per_page_clusters {
            let h = rng.gen_range(0..CHURN_HOT);
            let req = extract_request(inputs, h, page, &[0, 1]);
            extracts.push(inputs.requests.len());
            inputs.requests.push(req);
        }
    }
    let mut puts = vec![[0usize; 2]; CHURN_HOT];
    for (h, slots) in puts.iter_mut().enumerate() {
        for (v, slot) in slots.iter_mut().enumerate() {
            *slot = inputs.requests.len();
            let req = put_request(inputs, h, v);
            inputs.requests.push(req);
        }
    }
    // The author flips each hot cluster on every visit, round robin.
    let author = (0..CHURN_HOT * 64)
        .map(|j| {
            let h = j % CHURN_HOT;
            puts[h][(version[h] + 1 + j / CHURN_HOT) % 2]
        })
        .collect();
    inputs.clients.push(ClientPlan { role: "author", sequence: author, pace: Some(AUTHOR_PACE) });
    let mut rng = rng_for(seed, 30);
    let reads = (0..8192).map(|_| extracts[rng.gen_range(0..extracts.len())]).collect();
    inputs.clients.push(ClientPlan { role: "extractor", sequence: reads, pace: None });
    for (h, &live) in version.iter().enumerate() {
        let page = rng.gen_range(0..inputs.pages.len());
        let probe = extract_request(inputs, h, page, &[live]);
        inputs.probes.push(inputs.requests.len());
        inputs.requests.push(probe);
    }
}

// ---- report -----------------------------------------------------------

/// Maximum element depth of a parsed page (root = 0).
pub fn max_depth(doc: &Document) -> usize {
    let mut deepest = 0;
    let mut stack = vec![(doc.root(), 0usize)];
    while let Some((id, depth)) = stack.pop() {
        deepest = deepest.max(depth);
        for child in doc.children(id) {
            stack.push((child, depth + 1));
        }
    }
    deepest
}

pub struct PageStats {
    pub bytes: Vec<f64>,
    pub nodes: Vec<f64>,
    pub depth: Vec<f64>,
}

/// Byte, node and depth distributions over the workload's distinct pages.
pub fn page_stats(pages: &[Page]) -> PageStats {
    let mut stats = PageStats { bytes: Vec::new(), nodes: Vec::new(), depth: Vec::new() };
    for p in pages {
        let doc = parse(&p.html);
        stats.bytes.push(p.html.len() as f64);
        stats.nodes.push(doc.len() as f64);
        stats.depth.push(max_depth(&doc) as f64);
    }
    stats
}

impl Inputs {
    /// Digest over every byte the benchmark sends or stores: request
    /// wire bytes, accepted bodies and the repository seed.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.requests {
            h.write(&r.bytes);
            for e in &r.expect {
                h.write(&e.body);
            }
        }
        for plan in &self.clients {
            for &i in &plan.sequence {
                h.write(&(i as u64).to_le_bytes());
            }
        }
        h.write(self.repo.snapshot.to_json().to_string_compact().as_bytes());
        for rules in &self.repo.wal_tail {
            h.write(rules.to_json().to_string_compact().as_bytes());
        }
        h.finish()
    }

    /// The input report: properties later claims can cite.
    pub fn report(&self, stats: &PageStats) -> Vec<String> {
        let deep = stats.depth.iter().filter(|&&d| d > 64.0).count() as f64;
        let rules: Vec<String> = self
            .clusters
            .iter()
            .take(4)
            .map(|c| format!("{}={}", c.name, c.versions[0].rules.len()))
            .collect();
        let mut lines = vec![
            format!(
                "inputs: workload={} seed={} digest={:016x} pages={} requests={} clusters_on_server={}",
                self.workload.name(),
                self.seed,
                self.digest(),
                self.pages.len(),
                self.requests.len(),
                self.repo.snapshot.len(),
            ),
            format!(
                "inputs: bytes/page p50={:.0} min={:.0} max={:.0}; nodes/page p50={:.0}",
                median(&stats.bytes),
                quantile(&stats.bytes, 0.0),
                quantile(&stats.bytes, 1.0),
                median(&stats.nodes),
            ),
            format!(
                "inputs: depth p50={:.0} p90={:.0} p99={:.0} max={:.0}; share deeper than 64={:.3}",
                median(&stats.depth),
                quantile(&stats.depth, 0.9),
                quantile(&stats.depth, 0.99),
                quantile(&stats.depth, 1.0),
                deep / stats.depth.len().max(1) as f64,
            ),
            format!("inputs: rules per cluster: {}", rules.join(" ")),
        ];
        let mut nonconverged: Vec<String> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for c in &self.clusters {
            for n in &c.nonconverged {
                if !seen.contains(&n.as_str()) {
                    seen.push(n);
                    nonconverged.push(format!("{}:{n}", c.name));
                }
            }
        }
        lines.push(format!(
            "inputs: builder components not converged: {}",
            if nonconverged.is_empty() { "none".to_string() } else { nonconverged.join(", ") }
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for workload in [Workload::ListingBatch, Workload::RuleChurn] {
            let a = generate(workload, 5, true);
            let b = generate(workload, 5, true);
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_ne!(a.digest(), generate(workload, 6, true).digest(), "{}", workload.name());
        }
    }

    #[test]
    fn chrome_plan_is_stratified() {
        let plan = chrome_plan(100, &mut rng_for(1, 1));
        assert_eq!(plan.iter().filter(|(_, nesting)| *nesting >= 30).count(), 10);
        let mut sizes: Vec<usize> = plan.iter().map(|(size, _)| *size).collect();
        sizes.sort();
        assert!((20_000..30_000).contains(&sizes[50]), "median {}", sizes[50]);
        assert!(sizes[0] >= 8_000 && sizes[99] <= 60_000);
        let other: Vec<usize> = chrome_plan(100, &mut rng_for(2, 1)).iter().map(|p| p.0).collect();
        let mut other_sorted = other.clone();
        other_sorted.sort();
        assert_eq!(sizes, other_sorted, "same distribution for every seed");
    }
}
