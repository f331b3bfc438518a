package main

// Per-layer figures of the traced run. Counters come from the
// daemons' own stats snapshots, taken around the measured window;
// timings come from the benchmark's spans around calls into each layer
// (medians over the whole traced phase, set-up included). Each group's
// comment names the end-to-end figures it should move, at a workload
// (@); "no change" marks a workload that bypasses the layer.

import (
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
)

// snapshot is every counter block the layer figures read.
type snapshot struct {
	at     time.Time
	master server.MasterStats
	nfs    nfs.ServerStats
	store  storage.Stats
	io     client.IOStats // summed over the workload's clients
	mounts nfs.Stats      // summed over their live mounts
	// cliStageUS sums client-observed RPC stage time by stage name
	// ("total" for whole spans), over live mounts and closed sessions.
	cliStageUS map[string]float64
	spans      map[string]spanTotal // span counts and time by name
	sec        secchan.Snapshot
	wire       stats.WireCopyStats
	ws         struct{ bytes, writes, busyNS uint64 }
	cpuNS      int64
	alloc      uint64
	numGC      uint32
}

func takeSnapshot(d *deployment, cls []*client.Client) snapshot {
	s := snapshot{at: time.Now(), master: d.master.StatsSnapshot(), cliStageUS: map[string]float64{}}
	s.nfs = s.master.Locations[location]
	if s.nfs.Storage != nil {
		s.store = *s.nfs.Storage
	}
	for _, cl := range cls {
		st := cl.StatsSnapshot()
		io := st.IO
		s.io.ReadAheadHits += io.ReadAheadHits
		s.io.ReadAheadMisses += io.ReadAheadMisses
		s.io.WriteBehindChunks += io.WriteBehindChunks
		s.io.WriteBehindBytes += io.WriteBehindBytes
		s.io.RetransmittedBytes += io.RetransmittedBytes
		for _, m := range st.Mounts {
			s.mounts.Calls += m.Calls
			s.mounts.AttrHits += m.AttrHits
			s.mounts.Invals += m.Invals
			s.mounts.DataHits += m.DataHits
			s.mounts.DataMisses += m.DataMisses
			if m.Stages != nil {
				addStages(s.cliStageUS, *m.Stages)
			}
		}
	}
	d.cliMu.Lock()
	for k, v := range d.cliStages {
		s.cliStageUS[k] += v
	}
	d.cliMu.Unlock()
	s.spans = d.cfg.rec.sums()
	s.sec = secchan.StatsSnapshot()
	s.wire = stats.WireCopySnapshot()
	s.ws.bytes, s.ws.writes = d.ws.bytes.Load(), d.ws.writes.Load()
	s.ws.busyNS = uint64(d.ws.busyNS.Load())
	s.cpuNS = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.numGC = ms.TotalAlloc, ms.NumGC
	return s
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addStages adds a stage snapshot's sums, in microseconds, to acc.
func addStages(acc map[string]float64, st stats.StageSetSnapshot) {
	acc["total"] += float64(st.Total.SumUS)
	for name, v := range st.Stages {
		acc[name] += float64(v.SumUS)
	}
}

func stageDelta(a, b stats.StageSetSnapshot, name string) (sumUS, count float64) {
	return float64(b.Stages[name].SumUS) - float64(a.Stages[name].SumUS),
		float64(b.Stages[name].Count) - float64(a.Stages[name].Count)
}

// work is what the measured window did, in the workload's own terms.
type work struct {
	ops         int     // completed operations (sessions on login-storm)
	userWritten float64 // payload bytes the application wrote
	userRead    float64 // payload bytes the application read and verified
	genLate     []int64 // sorted generator lateness samples, ns
}

// layerMetrics computes the per-layer table for one traced window.
func layerMetrics(rec *recorder, a, b snapshot, w work) map[string]stat {
	out := map[string]stat{}
	put := func(name string, v float64, unit string, n int) { out[name] = stat{Value: v, Unit: unit, N: n} }
	ops := float64(w.ops)
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	span := func(metric, name, unit string) { out[metric] = rec.median(name, unit) }

	// client → write_MBps@bulk-rw, write_p50_us@small-files (writeat,
	// sync); read_MBps@bulk-rw (readat, readahead, chunk fill).
	span("client.writeat_us", "client.writeat", "us")
	span("client.sync_ms", "client.sync", "ms")
	span("client.readat_us", "client.readat", "us")
	raH, raM := d(a.io.ReadAheadHits, b.io.ReadAheadHits), d(a.io.ReadAheadMisses, b.io.ReadAheadMisses)
	put("client.readahead_hit_ratio", ratio(raH, raH+raM), "ratio", int(raH+raM))
	wbC := d(a.io.WriteBehindChunks, b.io.WriteBehindChunks)
	put("client.wb_chunk_fill_ratio", ratio(d(a.io.WriteBehindBytes, b.io.WriteBehindBytes), wbC*8192), "ratio", int(wbC))
	put("client.retransmitted_bytes", d(a.io.RetransmittedBytes, b.io.RetransmittedBytes), "bytes", 1)

	// nfs → read_p50_us@small-files (cache hits), no change @bulk-rw,
	// which streams past the cache; ops_per_s@small-files (RPCs per op);
	// write_MBps@bulk-rw and p99_us@small-files (commit batches, leases).
	dh, dm := d(a.mounts.DataHits, b.mounts.DataHits), d(a.mounts.DataMisses, b.mounts.DataMisses)
	put("nfs.data_hit_ratio", ratio(dh, dh+dm), "ratio", int(dh+dm))
	put("nfs.attr_hits_per_op", ratio(d(a.mounts.AttrHits, b.mounts.AttrHits), ops), "count/op", w.ops)
	put("nfs.invalidations", d(a.mounts.Invals, b.mounts.Invals), "count", 1)
	rpcs := d(a.nfs.RPC.Calls, b.nfs.RPC.Calls)
	put("nfs.rpcs_per_op", ratio(rpcs, ops), "count/op", w.ops)
	for _, p := range []string{"read", "write", "commit", "lookup", "getattr", "create", "remove", "readdir"} {
		put("nfs.calls."+p, d(a.nfs.Procs[p].Calls, b.nfs.Procs[p].Calls), "count", 1)
	}
	cbN := d(a.nfs.CommitBatchBytes.Count, b.nfs.CommitBatchBytes.Count)
	put("nfs.commit_batch_bytes_mean", ratio(d(a.nfs.CommitBatchBytes.Sum, b.nfs.CommitBatchBytes.Sum), cbN), "bytes", int(cbN))
	put("nfs.lease_breaks", d(a.nfs.Leases.Breaks, b.nfs.Leases.Breaks), "count", 1)

	// sunrpc → p99_us@small-files.
	put("sunrpc.inflight_max", float64(b.nfs.RPC.InFlight.Max), "count", 1)
	latN := d(a.nfs.RPC.Latency.Count, b.nfs.RPC.Latency.Count)
	put("sunrpc.server_latency_us_mean", ratio(d(a.nfs.RPC.Latency.Sum, b.nfs.RPC.Latency.Sum), latN), "us", int(latN))

	// wire (the benchmark's conn wrappers) → MBps@bulk-rw,
	// write_p50_us@small-files.
	writes := d(a.ws.writes, b.ws.writes)
	put("wire.bytes_per_user_byte", ratio(d(a.ws.bytes, b.ws.bytes), w.userWritten+w.userRead), "ratio", int(writes))
	put("wire.writes_per_rpc", ratio(writes, rpcs), "count", int(rpcs))
	put("wire.write_busy_us", ratio(d(a.ws.busyNS, b.ws.busyNS)/1e3, writes), "us", int(writes))

	// xdr → MBps@bulk-rw.
	put("xdr.copies_per_payload_byte", ratio(d(a.wire.BytesCopied, b.wire.BytesCopied), d(a.wire.PayloadBytes, b.wire.PayloadBytes)), "ratio", 1)

	// secchan → MBps@bulk-rw and no change @login-storm (seal, open:
	// the server sees every payload record, WRITE calls arrive through
	// srv_open and READ replies leave through reply_seal);
	// login_full_p50_ms and login_resume_p50_ms (handshakes, Rabin);
	// login_p99_ms (resume misses).
	sealSum, sealN := stageDelta(a.nfs.RPC.Stages, b.nfs.RPC.Stages, "reply_seal")
	put("secchan.seal_us_mean", ratio(sealSum, sealN), "us", int(sealN))
	openSum, openN := stageDelta(a.nfs.RPC.Stages, b.nfs.RPC.Stages, "srv_open")
	put("secchan.open_us_mean", ratio(openSum, openN), "us", int(openN))
	put("secchan.seal_overhead_ratio", ratio(d(a.sec.SealWireBytes, b.sec.SealWireBytes), d(a.sec.SealPlainBytes, b.sec.SealPlainBytes)), "ratio", 1)
	span("secchan.handshake_full_ms", "secchan.handshake_full", "ms")
	span("secchan.handshake_resume_ms", "secchan.handshake_resume", "ms")
	full := d(a.master.Handshakes.Full, b.master.Handshakes.Full)
	put("secchan.rabin_decrypts_per_full_login", ratio(d(a.sec.RabinDecrypts, b.sec.RabinDecrypts), full), "count", int(full))
	miss := d(a.master.Handshakes.ResumeMiss, b.master.Handshakes.ResumeMiss)
	tries := miss + d(a.master.Handshakes.Resumed, b.master.Handshakes.Resumed)
	put("secchan.resume_miss_ratio", ratio(miss, tries), "ratio", int(tries))

	// agent, authserv → login_resume_p50_ms.
	span("agent.authenticate_ms", "agent.authenticate", "ms")
	span("authserv.login_rpc_ms", "authserv.login_rpc", "ms")

	// server → login_p99_ms (handshake pool wait per session since
	// boot; resumptions bypass the pool), error_ratio (rejects, login
	// failures), heap_peak_mb@login-storm (heap per live session).
	hs := b.master.Handshakes.Stages
	put("server.handshake_queue_wait_us", ratio(float64(hs.Stages["hs_queue"].SumUS), float64(hs.Total.Count)), "us", int(hs.Total.Count))
	put("server.rejects_busy", d(a.master.Handshakes.RejectsBusy, b.master.Handshakes.RejectsBusy), "count", 1)
	put("server.login_fails", d(a.master.LoginFails, b.master.LoginFails), "count", 1)
	// Heap high-water per concurrently live connection; client and
	// server share the process, so this bounds the server's share.
	put("server.session_heap_kb", ratio(float64(b.master.Handshakes.HeapInUseMax)/1024, float64(b.master.Active.Max)), "KiB", int(b.master.Active.Max))

	// vfs → p99_us and ops_per_s@small-files.
	va, vb := a.nfs.VFSLocks, b.nfs.VFSLocks
	put("vfs.node_contended_ratio", ratio(d(va.NodeContended, vb.NodeContended), d(va.NodeLocks, vb.NodeLocks)), "ratio", 1)
	put("vfs.map_contended_ratio", ratio(d(va.MapContended, vb.MapContended), d(va.MapLocks, vb.MapLocks)), "ratio", 1)
	put("vfs.order_restarts", d(va.OrderRestarts, vb.OrderRestarts), "count", 1)

	// store (the forwarding wrapper) → write_p50_us@small-files
	// (logmeta, commit); write_MBps and read_MBps@bulk-rw (writeat,
	// readat).
	span("store.logmeta_us", "store.logmeta", "us")
	span("store.commit_us", "store.commit", "us")
	span("store.writeat_us", "store.writeat", "us")
	span("store.readat_us", "store.readat", "us")

	// wal → write_p50_us and ops_per_s@small-files (fsyncs per durable
	// NFS request — COMMIT, FILE_SYNC WRITE, CREATE, REMOVE — below 1
	// when group commit shares them; batch size); write_MBps@bulk-rw
	// (journal bytes per user byte).
	durable := d(a.nfs.Commits, b.nfs.Commits) + d(a.nfs.SyncWrites, b.nfs.SyncWrites) +
		d(a.nfs.Procs["create"].Calls, b.nfs.Procs["create"].Calls) + d(a.nfs.Procs["remove"].Calls, b.nfs.Procs["remove"].Calls)
	put("wal.fsyncs_per_commit", ratio(d(a.store.Fsyncs, b.store.Fsyncs), durable), "ratio", int(durable))
	brN := d(a.store.BatchRecords.Count, b.store.BatchRecords.Count)
	put("wal.batch_records_mean", ratio(d(a.store.BatchRecords.Sum, b.store.BatchRecords.Sum), brN), "count", int(brN))
	put("wal.bytes_per_user_byte", ratio(d(a.store.WALBytes, b.store.WALBytes), w.userWritten), "ratio", 1)

	// pager → read_MBps and write_MBps@bulk-rw, near zero @small-files.
	var pa, pb storage.PagerStats
	if a.store.Pager != nil {
		pa = *a.store.Pager
	}
	if b.store.Pager != nil {
		pb = *b.store.Pager
	}
	// Faults per store data access (a read or write of an extent).
	access := float64(b.spans["store.readat"].N - a.spans["store.readat"].N + b.spans["store.writeat"].N - a.spans["store.writeat"].N)
	put("pager.fault_ratio", ratio(d(pa.Faults, pb.Faults), access), "ratio", int(access))
	put("pager.evictions", d(pa.Evictions, pb.Evictions), "count", 1)
	put("pager.writeback_failures", d(pa.WriteBackFailures, pb.WriteBackFailures), "count", 1)

	// checkpoint → p99_us@small-files, write_MBps@bulk-rw.
	var ca, cb storage.CheckpointStats
	if a.store.Checkpoint != nil {
		ca = *a.store.Checkpoint
	}
	if b.store.Checkpoint != nil {
		cb = *b.store.Checkpoint
	}
	put("checkpoint.count", d(ca.Count, cb.Count), "count", 1)
	span("checkpoint.duration_ms", "store.checkpoint", "ms")
	put("checkpoint.failures", d(ca.Failures, cb.Failures), "count", 1)

	// proc → every throughput figure: CPU per op (an 8 KB call on
	// bulk-rw, a session on login-storm) and the share of all cores busy;
	// allocation and GC → p99_us and the MBps figures.
	cpuUS := float64(b.cpuNS-a.cpuNS) / 1e3
	put("proc.cpu_us_per_op", ratio(cpuUS, ops), "us", w.ops)
	put("proc.cpu_utilization", ratio(cpuUS/1e6, b.at.Sub(a.at).Seconds()*float64(runtime.NumCPU())), "ratio", 1)
	put("proc.alloc_bytes_per_op", ratio(d(a.alloc, b.alloc), ops), "bytes", w.ops)
	put("proc.gc_cycles", float64(b.numGC-a.numGC), "count", 1)

	// gen: how late the open loop dispatched arrivals, or the closed
	// loops' own gap between ops; it qualifies login_p99_ms.
	out["gen.late_ms_p99"] = quantileStat(w.genLate, 0.99, "ms")

	// Self time per layer: span time minus the child spans the
	// benchmark attributed, per completed op. Store and wire spans run
	// on server goroutines and have no parent, so client self time
	// still contains them.
	self := map[string]time.Duration{}
	for name, v := range b.spans {
		self[name[:strings.IndexByte(name, '.')]] += v.Self - a.spans[name].Self
	}
	for _, layer := range selfLayers {
		put("selftime."+layer+"_us_per_op", ratio(float64(self[layer].Microseconds()), ops), "us", w.ops)
	}

	// Reconciliation of the outside timings with the stage tracer on
	// the same window. rpc: time inside client calls that issue RPCs
	// against the client-observed RPC spans (pipelined RPCs overlap,
	// so this goes negative on streaming). store: the server's vfs and
	// fsync stages against time inside the store. wire: the transport
	// write stages against time inside conn writes.
	sumSpans := func(prefixes ...string) float64 {
		var t time.Duration
		for name, v := range b.spans {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) && name != "store.checkpoint" {
					t += v.Total - a.spans[name].Total
				}
			}
		}
		return float64(t.Microseconds())
	}
	cli := func(stage string) float64 { return b.cliStageUS[stage] - a.cliStageUS[stage] }
	srv := func(stage string) float64 { s, _ := stageDelta(a.nfs.RPC.Stages, b.nfs.RPC.Stages, stage); return s }
	outside := sumSpans("client.", "nfs.", "authserv.")
	put("reconcile.rpc_gap_ratio", ratio(outside-cli("total"), outside), "ratio", 1)
	stage := srv("vfs") + srv("fsync")
	put("reconcile.store_gap_ratio", ratio(stage-sumSpans("store."), stage), "ratio", 1)
	stage = cli("cli_write") + srv("reply_write")
	put("reconcile.wire_gap_ratio", ratio(stage-d(a.ws.busyNS, b.ws.busyNS)/1e3, stage), "ratio", 1)
	return out
}

// selfLayers are the span name prefixes the self-time table reports.
var selfLayers = []string{"op", "client", "secchan", "agent", "authserv", "nfs", "store", "wire"}

func sortedKeys(m map[string]stat) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
