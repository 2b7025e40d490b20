//! The traced run: replay sampled requests of the load run in process,
//! through each layer's public functions, with one span per layer call.
//!
//! Spans are recorded here, around the calls into the layers; the
//! program itself is not instrumented. A span's self time is its
//! duration minus its children's. Every replayed response is held to
//! the same oracle as the load run.

use crate::inputs::{Inputs, Kind, Request};
use crate::stats::median;
use retroweb_html::{parse, Document};
use retroweb_json::Json;
use retroweb_service::http::{
    encode_full_response, encode_streaming_head, ChunkedWriter, ParseProgress, RequestParser,
    Response,
};
use retroweb_service::ServiceState;
use retroweb_xpath::Executor;
use retrozilla::{
    extract_cluster_compiled, extract_cluster_compiled_to, extract_page_compiled, ClusterHeader,
    ClusterRules, ClusterStore, CompiledCluster, ExtractionSink, JsonLinesSink, PageRecord,
    RuleFailure, XmlWriterSink,
};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Input bytes the call consumed, where that is its unit of work.
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; a disabled tracer records nothing, so the untraced
/// replay runs the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, req: u32, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now();
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns: start_ns, bytes: 0 });
        self.stack.push(id);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("span open");
        let end_ns = self.now();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// End the innermost span, recording the bytes it consumed.
    pub fn end_bytes(&mut self, bytes: usize) {
        if let Some(&id) = self.stack.last() {
            self.spans[id as usize - 1].bytes = bytes as u64;
        }
        self.end();
    }
}

/// Self time of every span: duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.ns();
    }
    spans.iter().map(|s| s.ns().saturating_sub(child_ns[s.id as usize])).collect()
}

/// An `ExtractionSink` wrapper that records one span per sink call.
struct TimedSink<'t, S> {
    inner: S,
    tracer: &'t mut Tracer,
    req: u32,
    name: &'static str,
}

impl<S: ExtractionSink> TimedSink<'_, S> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> io::Result<T>) -> io::Result<T> {
        self.tracer.begin(self.req, self.name);
        let out = f(&mut self.inner);
        self.tracer.end();
        out
    }
}

impl<S: ExtractionSink> ExtractionSink for TimedSink<'_, S> {
    fn begin_cluster(&mut self, header: &ClusterHeader) -> io::Result<()> {
        self.timed(|s| s.begin_cluster(header))
    }
    fn page(&mut self, uri: &str, record: &PageRecord) -> io::Result<()> {
        self.timed(|s| s.page(uri, record))
    }
    fn failure(&mut self, failure: &RuleFailure) -> io::Result<()> {
        self.timed(|s| s.failure(failure))
    }
    fn end_cluster(&mut self) -> io::Result<()> {
        self.timed(|s| s.end_cluster())
    }
}

/// Captures the sink's writes (bytes and call boundaries) so they can be
/// replayed through `ChunkedWriter` inside the response-encoding span.
#[derive(Default)]
struct Recorder {
    bytes: Vec<u8>,
    cuts: Vec<usize>,
}

impl Write for Recorder {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(data);
        self.cuts.push(self.bytes.len());
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-process state the replay runs against: the server's own state
/// (default store and durability mode), opened on a copy of the
/// workload's repository.
pub struct Replay<'a> {
    pub inputs: &'a Inputs,
    pub state: Arc<ServiceState>,
    pub tracer: Tracer,
    /// Failure counts of the probe extractions, per page.
    pub probe_failures: Vec<usize>,
    /// Sink output bytes and pages, for `core.sink_bytes_per_page`.
    pub sink_bytes: u64,
    pub sink_pages: u64,
    pub errors: Vec<String>,
}

fn parse_request(tr: &mut Tracer, req_id: u32, bytes: &[u8]) -> retroweb_service::Request {
    let mut buf = bytes.to_vec();
    tr.begin(req_id, "service.http_parse");
    let progress = RequestParser::new().advance(&mut buf);
    tr.end_bytes(bytes.len());
    match progress {
        ParseProgress::Complete(req) => req,
        other => panic!("the benchmark's own request did not parse: {other:?}"),
    }
}

impl Replay<'_> {
    fn accept(&mut self, req: &Request, body: &[u8]) {
        if !req.expect.iter().any(|e| e.body == body) {
            self.errors.push(format!(
                "replay of a {:?} request on {}: body differs from the load run's oracle",
                req.kind, self.inputs.clusters[req.cluster].name
            ));
        }
    }

    /// One request on the server's path, as a root span.
    pub fn request(&mut self, req_id: u32, index: usize) {
        let inputs = self.inputs;
        let req = &inputs.requests[index];
        self.tracer.begin(req_id, "service.request");
        match req.kind {
            Kind::Extract => self.extract_one(req_id, req),
            Kind::Batch { ndjson } => self.extract_batch(req_id, req, ndjson),
            Kind::Put => self.put(req_id, req),
        }
        self.tracer.end();
    }

    fn extract_one(&mut self, req_id: u32, req: &Request) {
        let parsed = parse_request(&mut self.tracer, req_id, &req.bytes);
        let uri = parsed.header("x-page-uri").unwrap_or("page").to_string();
        let html = String::from_utf8_lossy(&parsed.body).into_owned();
        let name = &self.inputs.clusters[req.cluster].name;
        let tr = &mut self.tracer;
        tr.begin(req_id, "html.parse");
        let doc = parse(&html);
        tr.end_bytes(html.len());
        tr.begin(req_id, "core.store_lookup");
        let compiled = self.state.repo().compiled(name).expect("workload cluster");
        tr.end();
        let pages = [(uri, doc)];
        tr.begin(req_id, "core.extract");
        let result = extract_cluster_compiled(&compiled, &pages);
        tr.end();
        tr.begin(req_id, "xmlout.serialize");
        let body = result.xml.to_string_with(2);
        tr.end();
        tr.begin(req_id, "service.response_encode");
        let wire = encode_full_response(
            &Response::xml(body).with_header("x-retroweb-failures", result.failures.len()),
        );
        tr.end();
        tr.begin(req_id, "html.free");
        drop(pages);
        tr.end();
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
        self.accept(req, &wire[head_end..]);
    }

    fn extract_batch(&mut self, req_id: u32, req: &Request, ndjson: bool) {
        let parsed = parse_request(&mut self.tracer, req_id, &req.bytes);
        let text = String::from_utf8_lossy(&parsed.body).into_owned();
        let tr = &mut self.tracer;
        tr.begin(req_id, "json.decode");
        let json = retroweb_json::parse(&text).expect("batch body is JSON");
        tr.end_bytes(text.len());
        let pages: Vec<(String, String)> = json
            .as_array()
            .expect("page array")
            .iter()
            .map(|p| {
                let field = |k: &str| p.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("uri"), field("html"))
            })
            .collect();
        let name = &self.inputs.clusters[req.cluster].name;
        tr.begin(req_id, "core.store_lookup");
        let compiled = self.state.repo().compiled(name).expect("workload cluster");
        tr.end();
        let mut docs = Vec::with_capacity(pages.len());
        for (uri, html) in pages {
            tr.begin(req_id, "html.parse");
            let doc = parse(&html);
            tr.end_bytes(html.len());
            docs.push((uri, doc));
        }
        let mut recorder = Recorder::default();
        tr.begin(req_id, "core.extract");
        let stats = if ndjson {
            let inner = JsonLinesSink::new(&mut recorder);
            let mut sink =
                TimedSink { inner, tracer: &mut *tr, req: req_id, name: "core.sink_ndjson" };
            extract_cluster_compiled_to(&compiled, &docs, &mut sink)
        } else {
            let inner = XmlWriterSink::new(&mut recorder);
            let mut sink =
                TimedSink { inner, tracer: &mut *tr, req: req_id, name: "core.sink_xml" };
            extract_cluster_compiled_to(&compiled, &docs, &mut sink)
        }
        .expect("in-memory sink");
        tr.end();
        let content_type =
            if ndjson { "application/x-ndjson" } else { "application/xml; charset=UTF-8" };
        tr.begin(req_id, "service.response_encode");
        let mut wire = encode_streaming_head(200, content_type, &[], true, false);
        let mut chunked = ChunkedWriter::new(&mut wire);
        let mut from = 0;
        for &cut in &recorder.cuts {
            chunked.write_all(&recorder.bytes[from..cut]).expect("in-memory write");
            from = cut;
        }
        chunked.finish().expect("in-memory write");
        tr.end();
        tr.begin(req_id, "html.free");
        drop(docs);
        tr.end();
        self.sink_bytes += recorder.bytes.len() as u64;
        self.sink_pages += stats.pages as u64;
        self.accept(req, &recorder.bytes);
    }

    fn put(&mut self, req_id: u32, req: &Request) {
        let parsed = parse_request(&mut self.tracer, req_id, &req.bytes);
        let text = String::from_utf8_lossy(&parsed.body).into_owned();
        let tr = &mut self.tracer;
        tr.begin(req_id, "json.decode");
        let json = retroweb_json::parse(&text).expect("PUT body is JSON");
        tr.end_bytes(text.len());
        tr.begin(req_id, "core.from_json");
        let rules = ClusterRules::from_json(&json).expect("builder rules round-trip");
        tr.end();
        tr.begin(req_id, "core.lint");
        let lint = rules.lint();
        tr.end();
        let (name, n_rules) = (rules.cluster.clone(), rules.rules.len());
        tr.begin(req_id, "core.wal_record");
        let recorded = self.state.durable().record(rules);
        tr.end();
        tr.begin(req_id, "core.compile");
        let compiled = self.state.repo().compiled(&name);
        tr.end();
        let reply = Json::object(vec![
            ("cluster".into(), Json::from(name.as_str())),
            ("rules".into(), Json::from(n_rules)),
            ("replaced".into(), Json::from(true)),
            ("lint".into(), lint.to_json()),
        ]);
        tr.begin(req_id, "service.response_encode");
        let wire = encode_full_response(&Response::json(200, &reply));
        tr.end();
        if recorded.is_err() || compiled.is_none() || wire.is_empty() {
            self.errors.push(format!("replayed PUT {name} failed"));
        }
    }

    /// Off the request path: decompose page extraction. Executor set-up
    /// and fused execution are timed on fresh parses of the page
    /// (untimed), as the server's extraction meets it right after
    /// parsing. The rest of `extract_page_compiled` (values,
    /// post-processing, §7 checks) is too small to survive the noise
    /// between two fresh parses, so it is timed on one page in cache:
    /// `core.extract_page` minus `probe.warm_exec` (set-up plus
    /// execution), both after an untimed warm-up extraction.
    pub fn probe_page(&mut self, req_id: u32, compiled: &CompiledCluster, uri: &str, html: &str) {
        let tr = &mut self.tracer;
        tr.begin(req_id, "probe");
        {
            let doc = parse(html);
            tr.begin(req_id, "xpath.executor_setup");
            let exec = Executor::new(&doc);
            tr.end();
            drop(exec);
        }
        {
            let doc = parse(html);
            let exec = Executor::new(&doc);
            tr.begin(req_id, "xpath.fused_exec");
            let selected = compiled.fused().execute(&exec);
            tr.end();
            drop(selected);
        }
        let doc = parse(html);
        let mut failures = Vec::new();
        drop(extract_page_compiled(compiled, uri, &doc, &mut failures));
        tr.begin(req_id, "probe.warm_exec");
        let exec = Executor::new(&doc);
        let selected = compiled.fused().execute(&exec);
        tr.end();
        drop((selected, exec));
        failures.clear();
        tr.begin(req_id, "core.extract_page");
        let values: BTreeMap<String, Vec<String>> =
            extract_page_compiled(compiled, uri, &doc, &mut failures);
        tr.end();
        drop(values);
        self.probe_failures.push(failures.len());
        tr.end();
    }

    /// Off the request path: the single-page response serialisation.
    pub fn probe_serialize(
        &mut self,
        req_id: u32,
        compiled: &CompiledCluster,
        uri: &str,
        doc: Document,
    ) {
        let result = extract_cluster_compiled(compiled, &[(uri.to_string(), doc)]);
        let tr = &mut self.tracer;
        tr.begin(req_id, "probe");
        tr.begin(req_id, "xmlout.serialize");
        let body = result.xml.to_string_with(2);
        tr.end();
        tr.end();
        drop(body);
    }

    /// Off the request path: both batch sinks over one page.
    pub fn probe_sinks(
        &mut self,
        req_id: u32,
        compiled: &CompiledCluster,
        uri: &str,
        doc: Document,
    ) {
        let docs = [(uri.to_string(), doc)];
        let tr = &mut self.tracer;
        tr.begin(req_id, "probe");
        for (ndjson, name) in [(false, "core.sink_xml"), (true, "core.sink_ndjson")] {
            let mut out = Vec::new();
            let stats = if ndjson {
                let inner = JsonLinesSink::new(&mut out);
                let mut sink = TimedSink { inner, tracer: &mut *tr, req: req_id, name };
                extract_cluster_compiled_to(compiled, &docs, &mut sink)
            } else {
                let inner = XmlWriterSink::new(&mut out);
                let mut sink = TimedSink { inner, tracer: &mut *tr, req: req_id, name };
                extract_cluster_compiled_to(compiled, &docs, &mut sink)
            }
            .expect("in-memory sink");
            self.sink_bytes += out.len() as u64;
            self.sink_pages += stats.pages as u64;
        }
        tr.end();
    }
}

/// Warm `ClusterStore::compiled` lookups, in ns per lookup (median of
/// 20 rounds over the workload's clusters).
pub fn store_lookup_ns(store: &dyn ClusterStore, names: &[String]) -> f64 {
    let mut rounds = Vec::new();
    for _ in 0..20 {
        let started = Instant::now();
        let mut hits = 0usize;
        for i in 0..2000 {
            hits += store.compiled(&names[i % names.len()]).is_some() as usize;
        }
        assert_eq!(hits, 2000, "warm lookups hit");
        rounds.push(started.elapsed().as_nanos() as f64 / 2000.0);
    }
    median(&rounds)
}

/// Spans as JSON lines: `{"pass","req","span","parent","name","start_ns","end_ns"}`.
pub fn write_spans(path: &std::path::Path, passes: &[Vec<Span>]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes.iter().enumerate() {
        for s in spans {
            writeln!(
                out,
                "{{\"pass\":{pass},\"req\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.begin(7, "root");
        tr.begin(7, "child");
        tr.begin(7, "grandchild");
        tr.end();
        tr.end();
        tr.begin(7, "child");
        tr.end();
        tr.end();
        let selfs = self_times(&tr.spans);
        let root = &tr.spans[0];
        assert_eq!(root.parent, 0);
        assert_eq!(tr.spans[1].parent, root.id);
        assert_eq!(tr.spans[2].parent, tr.spans[1].id);
        assert_eq!(selfs[0], root.ns() - tr.spans[1].ns() - tr.spans[3].ns());
        assert_eq!(selfs[1], tr.spans[1].ns() - tr.spans[2].ns());
        assert_eq!(selfs[2], tr.spans[2].ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.begin(1, "root");
        tr.end_bytes(10);
        assert!(tr.spans.is_empty());
    }
}
