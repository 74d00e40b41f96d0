// Umbrella header for the bulkgcd library — the public API surface.
//
//   mp::BigInt / mp::BigIntT<Limb>      arbitrary-precision unsigned integers
//   gcd::gcd_general / gcd_odd          single-pair GCD (five algorithms)
//   gcd::probe_moduli_pair              early-terminate RSA-moduli probe
//   gcd::GcdEngine<Limb>                reusable scalar engine
//   gcd::ref_*                          pseudocode-level reference engines
//   rsa::generate_keypair / encrypt / decrypt / recover_private_key
//   rsa::generate_corpus                weak-key corpus synthesis
//   rsa::MontgomeryContext              fast modular exponentiation
//   rsa::save_moduli / load_moduli      keystore file I/O
//   bulk::all_pairs_gcd                 the paper's bulk attack (Section VI)
//   bulk::run_resumable_scan            checkpointed, fault-tolerant scan
//   bulk::probe_incremental             one-new-key incremental scan
//   bulk::SimtBatch                     warp-lockstep execution engine
//   obs::MetricsRegistry                telemetry counters/gauges/histograms
//   obs::TelemetryEmitter               periodic NDJSON snapshot writer
//   obs::MetricsHttpServer              /metrics + /status + /trace endpoint
//   obs::TraceRecorder                  per-thread event timelines (Chrome)
//   bulk::query_build_info              version/limb/backend identification
//   svc::IntakeService                  streaming key-intake pipeline
//   svc::IntakeParser                   PEM/keystore/raw-hex stream parser
//   svc::ArrivalJournal                 durable intake arrival journal
//   bulk::StagedCorpus                  staged corpus (sweep, scan, probe)
//   batchgcd::batch_gcd                 Bernstein product/remainder tree
//   batchgcd::run_resumable_batch       checkpointed level-by-level driver
//   gcd::gcd_lehmer                     Lehmer's GCD (extension baseline)
//   umm::UmmSimulator                   the paper's GPU cost model
//
// See README.md for a guided tour and examples/ for runnable programs
// (examples/weakscan/ is the operational command-line tool).
#pragma once

#include "batchgcd/batch_journal.hpp"
#include "batchgcd/batchgcd.hpp"
#include "bulk/allpairs.hpp"
#include "bulk/build_info.hpp"
#include "bulk/block_grid.hpp"
#include "bulk/scan_driver.hpp"
#include "bulk/simt.hpp"
#include "bulk/staged_corpus.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "gcd/algorithms.hpp"
#include "gcd/lehmer.hpp"
#include "gcd/reference.hpp"
#include "mp/bigint.hpp"
#include "obs/emitter.hpp"
#include "obs/exposition.hpp"
#include "obs/http_exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rsa/barrett.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "rsa/modmath.hpp"
#include "rsa/pem.hpp"
#include "rsa/montgomery.hpp"
#include "rsa/prime.hpp"
#include "rsa/rsa.hpp"
#include "svc/arrival_journal.hpp"
#include "svc/bounded_queue.hpp"
#include "svc/intake_parser.hpp"
#include "svc/intake_service.hpp"
#include "umm/oblivious.hpp"
#include "umm/pipeline.hpp"
#include "umm/umm.hpp"
