//! Replay passes: after a traced run, time single layers' public
//! functions on the inputs the workload generated — the same requests,
//! vantage countries and pages — one call at a time. Layers a workload
//! never reaches are replayed on the inputs its seed gives the workload
//! that does reach them, so every traced run reports every layer.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_bigint::Big;
use sheriff_core::durability::{encode_record, Storage};
use sheriff_core::measurement::{process_response, JobPageStore, VantageMeta};
use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::proxy::IpcEngine;
use sheriff_core::system::default_ipc_locations;
use sheriff_core::{JobId, PriceCheck, VantageKind};
use sheriff_crypto::ipfe::client_vector;
use sheriff_crypto::protocol::BlindedQuery;
use sheriff_crypto::GroupParams;
use sheriff_currency::detect_price_with_hint;
use sheriff_geo::IpAllocator;
use sheriff_html::{Document, TagsPath};
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::UserAgent;
use sheriff_wire::{read_frame, write_frame, Envelope, FileStorage};

use crate::gen::{self, Request, FIRST_PEER};
use crate::outcome::{Fig, Outcome};
use crate::trace::Tracer;
use crate::{des, kmeans};

/// Requests whose pages are replayed.
const PAGE_SAMPLE: usize = 24;
/// Loopback frame round trips timed.
const LOOPBACK_REPS: usize = 200;
/// WAL append + barrier pairs timed.
const BARRIER_REPS: usize = 24;
/// Modular exponentiations timed.
const MOD_POW_REPS: usize = 200;
/// Clients whose blinded query is timed.
const QUERY_SAMPLE: usize = 8;

/// Where a workload's checks fan out to.
#[derive(Clone, Copy, Debug)]
pub struct Fanout {
    /// Roster size the requests draw initiators from.
    pub peers: u64,
    /// PPCs asked per check (same location as the initiator).
    pub ppcs: usize,
    /// Whether the paper's 30 IPCs are asked too.
    pub ipcs: bool,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Page pipeline, codec, loopback and storage replays over the first
/// requests of the workload.
pub fn pages(reqs: &[Request], fan: Fanout, tmp: &Path) -> BTreeMap<&'static str, Fig> {
    let mut world = gen::world();
    let rates = world.rates.clone();
    let roster = gen::roster(fan.peers);
    let mut alloc = IpAllocator::new();
    let agent = UserAgent {
        os: Os::Linux,
        browser: Browser::Firefox,
    };
    let (mut fetch, mut parse, mut process, mut detect, mut store) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut checks = Vec::new();
    let mut mix: Vec<Envelope> = Vec::new();
    for (job, req) in reqs.iter().take(PAGE_SAMPLE).enumerate() {
        let job = job as u64 + 1;
        let Some(spec) = roster.get((req.peer - FIRST_PEER) as usize) else {
            continue;
        };
        let home = (spec.country, spec.city_idx);
        let mut places = vec![home; 1 + fan.ppcs];
        if fan.ipcs {
            places.extend(default_ipc_locations());
        }
        let mut pages = Vec::new();
        for (i, &(country, city)) in places.iter().enumerate() {
            let engine = IpcEngine {
                id: i as u64,
                country,
                city_idx: city,
                ip: alloc.allocate(country, city),
                user_agent: agent,
            };
            let t = Instant::now();
            let got = engine.fetch(
                &mut world,
                &req.domain,
                req.product,
                0,
                0,
                0,
                job * 100 + i as u64,
            );
            fetch.push(us(t));
            if let Some(f) = got {
                pages.push((engine, f.html));
            }
        }
        let Some(path) = pages.first().and_then(|(_, html)| {
            let template = world.retailer(&req.domain).map_or(0, |r| r.template);
            let (tag, class) = sheriff_market::page::price_markup(template);
            let doc = Document::parse(html);
            TagsPath::from_node(&doc, doc.find_by_class(tag, class)?)
        }) else {
            continue;
        };
        let mut page_store = JobPageStore::new(&pages[0].1);
        let mut observations = Vec::new();
        for (i, (engine, html)) in pages.iter().enumerate() {
            let meta = VantageMeta {
                kind: if i == 0 {
                    VantageKind::Initiator
                } else if i <= fan.ppcs {
                    VantageKind::Ppc
                } else {
                    VantageKind::Ipc
                },
                id: engine.id,
                country: engine.country,
                city: None,
                ip: engine.ip,
            };
            let t = Instant::now();
            let doc = Document::parse(html);
            parse.push(us(t));
            drop(doc);
            let t = Instant::now();
            let obs = process_response(html, &path, &meta, "EUR", &rates);
            process.push(us(t));
            if !obs.raw_text.is_empty() {
                let t = Instant::now();
                let _ = detect_price_with_hint(&obs.raw_text, engine.country.currency());
                detect.push(us(t));
            }
            if i > 0 {
                let t = Instant::now();
                page_store.store_response(html);
                store.push(us(t));
                let from = Address::Ipc { index: i };
                mix.push(Envelope {
                    from: Address::Server { index: 0 },
                    msg: ProtoMsg::FetchOrder {
                        job: JobId(job),
                        domain: req.domain.clone(),
                        product: req.product,
                        seq: job * 100 + i as u64,
                    },
                });
                mix.push(Envelope {
                    from,
                    msg: ProtoMsg::FetchReply {
                        job: JobId(job),
                        meta: meta.clone(),
                        html: html.clone(),
                    },
                });
            }
            observations.push(obs);
        }
        let check = PriceCheck {
            job_id: job,
            domain: req.domain.clone(),
            url: format!("{}/product/{}", req.domain, req.product.0),
            day: 0,
            observations,
        };
        let peer = Address::Peer { id: req.peer };
        mix.push(Envelope {
            from: peer,
            msg: ProtoMsg::StartCheck {
                domain: req.domain.clone(),
                product: req.product,
                local_tag: job,
            },
        });
        mix.push(Envelope {
            from: peer,
            msg: ProtoMsg::JobSubmit {
                job: JobId(job),
                domain: req.domain.clone(),
                product: req.product,
                tags_path: path.clone(),
                initiator_html: pages[0].1.clone(),
                initiator_obs: Box::new(check.observations[0].clone()),
            },
        });
        for msg in [
            ProtoMsg::StoreCheck {
                job: JobId(job),
                check: Box::new(check.clone()),
            },
            ProtoMsg::Results {
                job: JobId(job),
                check: Box::new(check.clone()),
            },
            ProtoMsg::DbAck { job: JobId(job) },
            ProtoMsg::JobComplete { job: JobId(job) },
        ] {
            mix.push(Envelope {
                from: Address::Server { index: 0 },
                msg,
            });
        }
        checks.push(check);
    }

    let mut out = BTreeMap::new();
    out.insert("market.fetch_us", Fig::median(&fetch));
    out.insert("html.parse_us", Fig::median(&parse));
    out.insert("measurement.process_response_us", Fig::median(&process));
    out.insert("currency.detect_us", Fig::median(&detect));
    out.insert("measurement.page_store_us", Fig::median(&store));
    codec(&mix, &mut out);
    loopback(&mix, &mut out);
    storage(&checks, tmp, &mut out);
    out
}

/// `Envelope::send` into a buffer and `Envelope::recv` back, over the
/// replayed message mix; mean µs per frame.
fn codec(mix: &[Envelope], out: &mut BTreeMap<&'static str, Fig>) {
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    let t = Instant::now();
    for env in mix {
        buf.clear();
        env.send(&mut buf).expect("encode to a buffer");
        bytes += buf.len();
        let back = Envelope::recv(&mut buf.as_slice()).expect("decode from a buffer");
        assert_eq!(back.as_ref(), Some(env), "codec round trip");
    }
    let total = us(t);
    out.insert(
        "wire.codec_us_per_frame",
        Fig::new(
            total / mix.len().max(1) as f64,
            format!(
                "{total:.0} us / {} frames, {} bytes/frame",
                mix.len(),
                bytes / mix.len().max(1)
            ),
        ),
    );
}

/// One connect, `write_frame`, accept, `read_frame` over 127.0.0.1,
/// with the mix's median-size payload; median µs.
fn loopback(mix: &[Envelope], out: &mut BTreeMap<&'static str, Fig>) {
    let mut payloads: Vec<Vec<u8>> = mix
        .iter()
        .map(|e| serde_json::to_vec(e).expect("envelope serializes"))
        .collect();
    payloads.sort_by_key(Vec::len);
    let Some(payload) = payloads.get(payloads.len() / 2) else {
        return;
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut times = Vec::with_capacity(LOOPBACK_REPS);
    for _ in 0..LOOPBACK_REPS {
        let t = Instant::now();
        let mut tx = TcpStream::connect(addr).expect("connect loopback");
        write_frame(&mut tx, payload).expect("write frame");
        drop(tx);
        let (mut rx, _) = listener.accept().expect("accept loopback");
        let got = read_frame(&mut rx).expect("read frame");
        times.push(us(t));
        assert_eq!(got.as_deref(), Some(payload.as_slice()), "loopback frame");
    }
    let mut fig = Fig::median(&times);
    fig.basis = format!("{}, {} byte payload", fig.basis, payload.len());
    out.insert("wire.loopback_frame_us", fig);
}

/// `encode_record`, then `FileStorage` `append_wal` + `barrier` of that
/// record: the per-check durable-store cost.
fn storage(checks: &[PriceCheck], tmp: &Path, out: &mut BTreeMap<&'static str, Fig>) {
    let dir = tmp.join(format!("replay-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = FileStorage::open(&dir);
    let (mut encode, mut barrier) = (vec![], vec![]);
    for (i, check) in checks.iter().cycle().take(BARRIER_REPS).enumerate() {
        let t = Instant::now();
        let record = encode_record(i as u64, check.job_id, check);
        encode.push(us(t));
        let t = Instant::now();
        storage.append_wal(&record);
        storage.barrier();
        barrier.push(us(t) / 1e3);
    }
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    if !encode.is_empty() {
        out.insert("durability.encode_record_us", Fig::median(&encode));
        out.insert("wire.storage_barrier_ms", Fig::median(&barrier));
    }
}

/// Arrivals in the load-generator replay, and their rate per second.
const LOADGEN_ARRIVALS: usize = 200;
const LOADGEN_RATE: f64 = 200.0;

/// The open-loop generator alone, with no system behind it: how late
/// its sleeps wake on this host, p99 ms. Workloads without an open loop
/// report this floor.
pub fn loadgen(seed: u64) -> BTreeMap<&'static str, Fig> {
    let t0 = Instant::now() + std::time::Duration::from_millis(5);
    let mut late: Vec<f64> = gen::poisson_schedule(seed, LOADGEN_RATE, LOADGEN_ARRIVALS)
        .into_iter()
        .map(|at| crate::tcp::wait_until(t0 + std::time::Duration::from_secs_f64(at)))
        .collect();
    late.sort_by(f64::total_cmp);
    BTreeMap::from([(
        "loadgen.late_p99_ms",
        Fig::new(
            crate::stats::percentile(&late, 99.0),
            format!("p99 of {LOADGEN_ARRIVALS} idle-generator sleeps"),
        ),
    )])
}

/// Checks in the simulation replay.
const DES_SAMPLE: usize = 100;

/// The simulation-layer replay on this seed's first `des_batch`
/// requests: events per check, wall per event, WAL bytes per check.
pub fn des(seed: u64) -> BTreeMap<&'static str, Fig> {
    let reqs = des::requests(seed);
    let b = des::batch(
        seed,
        &reqs[..DES_SAMPLE],
        &Tracer::new(false),
        0,
        &mut Vec::new(),
    );
    let mut out = Outcome {
        ok: b.done.len() as u64,
        ..Outcome::default()
    };
    des::layers(&mut out, b.sim_s, &b.counters);
    for fig in out.layer.values_mut() {
        fig.basis = format!("{}; {DES_SAMPLE}-check DES replay", fig.basis);
    }
    out.layer
}

/// The k-means layer replays on this seed's `kmeans_256` inputs: the
/// mapping phase at one thread and at every core, the update, one
/// client's blinded query, and a 256-bit modular exponentiation.
pub fn kmeans(seed: u64) -> BTreeMap<&'static str, Fig> {
    let params = GroupParams::bits_256();
    let (points, init) = kmeans::inputs(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e91);
    let off = Tracer::new(false);
    let mut s = kmeans::setup(&params, &points, &init, &mut rng, &off, 0);
    let mut out = BTreeMap::new();
    out.insert(
        "kmeans.encrypt_ms_per_client",
        Fig::new(
            s.encrypt_ms / points.len() as f64,
            format!("{} clients", points.len()),
        ),
    );
    out.insert(
        "kmeans.dlog_build_ms",
        Fig::new(s.dlog_ms, "both tables, once".to_string()),
    );
    let threads = kmeans::threads();
    let t = Instant::now();
    s.aggregator
        .map_clients(&s.coordinator, &s.dist_table, threads, &mut rng);
    let map_n = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    s.aggregator
        .update_centroids(&mut s.coordinator, kmeans::K, &s.sum_table);
    out.insert(
        "kmeans.update_ms",
        Fig::new(t.elapsed().as_secs_f64() * 1e3, "one update".to_string()),
    );
    let t = Instant::now();
    s.aggregator
        .map_clients(&s.coordinator, &s.dist_table, 1, &mut rng);
    let map_1 = t.elapsed().as_secs_f64() * 1e3;
    out.insert(
        "kmeans.map_ms",
        Fig::new(map_n, format!("one pass at t={threads}")),
    );
    out.insert(
        "kmeans.map_t1_ms",
        Fig::new(map_1, "one pass at t=1".to_string()),
    );
    out.insert(
        "kmeans.map_speedup",
        Fig::new(
            map_1 / map_n,
            format!("t1 {map_1:.1} ms over t{threads} {map_n:.1} ms"),
        ),
    );

    let pk = s.coordinator.public_key();
    let mut query = Vec::new();
    for p in points.iter().take(QUERY_SAMPLE) {
        let ct = pk.encrypt(&client_vector(p), &mut rng);
        let t = Instant::now();
        let q = BlindedQuery::blind(&params, &ct, &mut rng);
        let responses = s.coordinator.evaluate_all(&q.blinded);
        for r in &responses {
            std::hint::black_box(q.unblind(&params, r, &s.dist_table));
        }
        query.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("crypto.blinded_query_ms", Fig::median(&query));

    let mut pow = Vec::with_capacity(MOD_POW_REPS);
    for _ in 0..MOD_POW_REPS {
        let base = Big::random_below(&mut rng, &params.p);
        let exp = Big::random_below(&mut rng, &params.q);
        let t = Instant::now();
        std::hint::black_box(params.pow(&base, &exp));
        pow.push(us(t));
    }
    out.insert("bigint.mod_pow_us", Fig::median(&pow));
    out
}
