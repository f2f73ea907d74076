// Command perfbench is the repository's same-host benchmark. One command
// runs one workload for one workload seed, checks that the system's outputs
// are correct, and prints every metric by name and unit.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload infer_scene --seed 1 --seconds 25 --trace 0
//
// run.sh builds this module from the checkout it runs in, keeping the Go
// build cache and the binary under .bench_build, and runs it. --trace 0 is an
// untraced run that reports the end-to-end metrics; --trace 1 is a traced run
// that reports the per-layer metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
// it record provenance (nproc, GOMAXPROCS, CPU model, Go version, git commit
// or source hash, workload seed, input digest), each sample as its median,
// its highest percentile with at least ten samples beyond it and its count,
// the measured hypervisor steal, and every failed check. fail_frac, failed
// operations over attempted ones, is the result's failed/attempted: a run
// error, a failed correctness check, or a non-200 or transport error each
// count as a failure.
//
// Load stays within the host: Cyclades threads and HTTP client connections
// are nproc, and infer_spawn2, with its two worker processes, refuses to
// start on fewer than two CPUs rather than measure the scheduler. All load
// comes from this one process and the processes it starts.
//
// The benchmark drives the system only through its public functions
// (celeste.InferWithOptions and RunWorker, core.Config.ExecTask, vi.FitWith,
// the elbo.Problem tiers, cyclades.Planner, net.ReadMessage, imageio,
// catserve.Store and Server) and records spans only in its own files.
//
// # Workloads
//
// The workload seed draws the inputs; the program sees only those inputs.
//
// infer_scene: full in-process InferWithOptions runs over a fixed-seed
// multi-epoch scene of blended sources (0.01° square at 200,000 sources per
// square degree, one field per band and epoch, a second epoch over the deep
// half), with one task rank, Threads = nproc, PatchThreads = 1, Rounds = 1
// and MaxIter = 12. The partition keeps the region whole, so each stage is one
// task of about 26 sources. A run makes (seconds - 3) / 3.6 inferences (six
// at 25 s; an inference took 2.5 to 4.5 s on the shared VM this benchmark
// was built on, as its neighbors came and went, which the run's time budget
// must absorb), the i-th starting from the seed's i-th preexisting catalog
// and planning its Cyclades batches from its own seed. Nearly all time goes
// to the ELBO kernel, the Newton fit and the Cyclades sweep; little goes to
// scheduling or wire work.
//
// The preexisting catalogs carry the errors skygen's noisy catalog has:
// position jitter, flux scatter, type confusion and galaxy shape noise. The
// workload seed draws only the position jitter; the flux, type and shape
// errors belong to the scene and are the same in every draw (see
// initCatalog). They set the sources' influence radii, and so how much work
// a fit does and how well two threads share a Cyclades batch: drawn per seed,
// they moved one inference's wall time by 17% between draws.
//
// infer_spawn2: the TCP runtime as `celeste -spawn 2` deploys it.
// Re-executed copies of this binary are the coordinator and the two workers,
// each worker with Threads = 1 and PatchThreads = 1, and each process loads
// the sky directory with imageio as `celeste -sky` and `celeste -worker` do.
// This process only launches them and waits, so their peak RSS comes from
// wait4 and excludes the benchmark's own set-up and checks. The sky is sparse
// (0.03° square at 25,000 per square degree, one epoch) and cut into about
// 40 tasks of zero to five sources, with Rounds = 1 and MaxIter = 10. A run
// makes (seconds - 3) / 3.3 spawned inferences (six at 25 s), the i-th
// starting from the seed's i-th preexisting catalog (drawn as infer_scene's
// are), written to the sky directory's init.jsonl before the processes
// start, and planning from its own seed. The coordinator
// checkpoints to a file on every commit, as -supervise deployments do, feeds
// a live catalog store as -query does, and writes the catalog file. The
// wire, coordinator, Dtree, PGAS get and put, image loading, run hash and
// checkpoint layers are all on the path. Tasks take about 40 ms (the sizing
// probe's were about 35 ms), so the ranks spend about 90% of their time in
// tasks, and worker start, sky load, handshake, waits and wire make up the
// rest of catalog_s.
//
// catserve_http: catserve over a real loopback listener, with reads beside
// writes. A 20,000-source store over one square degree answers an open-loop
// stream of cone, box and brightest-N queries at a fixed 800 per second over
// nproc connections, 80% aimed at 64 repeated (hot) targets and 20% at unique
// (cold) ones. Meanwhile one writer calls Store.Apply with 256 entries every
// 50 ms, as a live fit's commit stream does, and every publish empties the
// per-snapshot cache. It stresses the RCU store, the response cache and
// HTTP, which no other workload loads.
//
// # End-to-end metrics
//
// Reported from untraced runs; every workload reports every one.
//
//	setup_s       median of the run's set-ups (three; nine for the cheap
//	              catserve_http one): scene generation, sky-dir write and
//	              read-back (infer_spawn2) and a warm-up fit; store build and
//	              cache warm-up (catserve_http)
//	catalog_s     infer_*: median wall time from the start of inference to the
//	              final catalog in hand; for infer_spawn2, from starting the
//	              coordinator process to its exit with the catalog file
//	              written, so it includes process start, sky load and
//	              handshake. catserve_http: median time for one client to
//	              pull the whole live catalog over HTTP (tiled box queries)
//	              from a freshly published snapshot
//	pos_err_px    mean per-source position error against truth, each
//	              source's term capped at 0.1 px, pooled over the run's
//	              catalogs (infer_*: skygen truth; catserve_http: the truth
//	              the served entries were drawn from, a stand-in that the
//	              contract's every-metric-on-every-workload rule requires:
//	              the writer draws those entries as truth plus fixed noise,
//	              so the figure guards that the store serves what was
//	              written, but no catserve change can move it)
//	dmag_abs      mean per-source |Δmag| in the reference band, each source's
//	              term capped at 0.1 mag, pooled alike
//	rss_peak_mb   peak resident set of this process (infer_scene: through
//	              set-up and the inferences, leaving out the query windows
//	              between them); for infer_spawn2 the coordinator process's
//	              plus both workers', from wait4 rusage
//	query_p50_ms  median query latency, as the median of the windows'
//	              medians. catserve_http: in one-second windows at the
//	              workload's fixed rate of 800/s beside the writer, timed
//	              from each request's due time, for the 18 s the catalog
//	              pulls leave. infer_*: each finished catalog served to one
//	              connection sending back to back, timed from send to
//	              reply, in one window after each inference (3 s in all);
//	              at a light open-loop rate every request woke an idle
//	              server and client, and hypervisor steal set that wake-up
//	              (0.23 to 0.33 ms at 1,000/s against 0.050 to 0.057 ms
//	              back to back, in twelve one-second trials at 0 to 15%
//	              steal)
//
// setup_s and catalog_s have the share of running CPU time the hypervisor
// stole over the run taken out (see stealAdjusted); both figures are
// printed. No other host-speed correction is applied, because none found
// tracked the program: scaling by a fixed CPU and memory kernel timed around
// each operation widened the IQR over median of infer_scene's catalog_s from
// 0.10 to 0.18 over six seeds, as the kernel's readings moved by a quarter
// while the inferences did not. Over twenty-four samples a few seconds apart,
// a fixed batch of vi.FitWith calls varied by 14% (standard deviation over
// mean), and neither a register-bound floating-point loop, a streaming sum
// over 24 MB nor a dependent walk over 4 MB timed beside it correlated with
// it (|r| < 0.1): whatever slows the inferences is not a host speed that
// such a kernel reads.
//
// The per-source errors are heavy-tailed: a blended source whose fit slides
// onto its neighbor is off by pixels, and a plain mean over a run's hundred
// or so sources moved by a half between seeds. Hence capped means, at about
// twice the healthy median error: over ten seeds of infer_scene the IQR over
// median of the position error read 0.52 for the plain mean, 0.14 for the
// median and 0.04 capped at 0.1 px (0.05 at 0.2 px, 0.10 at 0.5 px); of
// |Δmag|, 0.20, 0.17 and 0.05 capped at 0.1 mag (0.07 at 0.3 mag). On five
// seeds of infer_spawn2 the capped means read 0.02 and 0.05. The capped means
// measure the bulk of the fits; the accuracy checks below count the failed
// tail. The plain means and the distributions are printed as details.
// MaxIter is high enough that the fits have largely forgotten their start:
// at MaxIter 8 (infer_scene) and 5 (infer_spawn2) the medians moved 15 to
// 25% between seeds.
//
// Reported but not gated: query_p99_ms (with p90 and p95) is printed as a
// detail. On the shared 2-CPU VM this benchmark was built on, hypervisor
// steal (1 to 26% of CPU time, printed with every run) sets the latency
// tail: across five seeds p99 at 800/s read 2.9 to 5.4 ms (IQR/median 0.43),
// wider than any gate bound could hold. For the same reason there is no
// saturation-rate figure: a ladder of rates from 1,000 to 6,500/s, searched
// for the highest rate with p99 under 10 ms, answered anywhere from 200/s
// to 4,900/s across seeds.
//
// # Per-layer metrics
//
// Reported from the traced run, named by module. Each should move the named
// end-to-end metric, on the named workloads; elsewhere the layer is not on
// the path and reads 0.
//
//	elbo.{full,grad,value}_ns_per_visit, elbo.visits   catalog_s  infer_* (little on infer_spawn2)
//	elbo.par_speedup (SetWorkers(nproc) vs 1)          catalog_s  infer_scene
//	vi.fit_ms, vi.iters_per_fit, vi.eval_share,        catalog_s  infer_*, with pos_err_px and
//	opt.{full,grad,value}_evals_per_fit                           dmag_abs held
//	cyclades.plan_ms, .components_per_batch,           catalog_s  infer_*
//	.busy_threads_frac
//	core.task_s.{p50,max}                              catalog_s  infer_*
//	core.sweep_s, core.runtime_overhead_s              catalog_s  infer_scene
//	pgas.get_s, pgas.put_s, pgas.get_bytes             catalog_s  infer_*
//	net.msgs, .bytes_c2w, .bytes_w2c, .get_rtt_ms.{p50,p99},
//	.put_rtt_ms.p50, .handshake_s                      catalog_s  infer_spawn2
//	dtree.next_wait_ms.{p50,p99}, .steals, .waits,
//	core.rank_busy_frac, core.tail_s                   catalog_s  infer_spawn2
//	imageio.load_s, .checkpoint_ms.p50,
//	.checkpoint_bytes, core.runhash_s                  catalog_s  infer_spawn2
//	partition.ms                                       catalog_s  infer_*
//	catserve.query_cold_us, .query_hit_us,
//	.cache_hit_frac, .resp_bytes_mean,
//	.http_overhead_us                                  query_p50_ms  all
//	catserve.apply_ms.{p50,p99}                        query_p50_ms  catserve_http
//	gen.late_ms.p99 (open-loop generator lateness)     validity of the run itself, catserve_http
//	trace.overhead_frac                                validity of the run itself, all
//
// The same map is the table in metrics.go, which a test checks against
// BENCHMARK.json.
//
// # Traced runs
//
// End-to-end numbers always come from untraced runs. A traced run keeps
// spans (name, start, end, parent) in memory, writes them to
// .bench_build/trace-<workload>.tsv when it ends, and prints self times by
// span name. trace.overhead_frac is the traced run's time over the untraced
// one, minus one.
//
// infer_scene: each run is replayed stage by stage and task by task through
// core.Config.ExecTask over PGAS arrays the benchmark owns, with timing
// Getter and Putter views: spans run → stage → task → {pgas.get, sweep,
// pgas.put}. The replay's catalog must be byte-identical to the untraced
// run's, and the parts must add up to the wall time: the self times of the
// get, sweep and put spans must cover the replay's wall time but for at most
// 5%, the self time left to run, stage and task spans (PGAS set-up, stage
// snapshots, neighbor selection, the final summaries). The fit, tier and
// Cyclades metrics come from vi.FitWith on each fitted source, the three
// elbo.Problem tiers at each fit's optimum, and cyclades.Planner on each
// task.
//
// infer_spawn2: every other run goes through a loopback relay that decodes
// each frame with net.ReadMessage and times request/reply pairs (TaskReq,
// Wait or Steal to Task; Get to Params; Put to the next reply, since a put
// is not acknowledged; Task to TaskDone). Each rank's timeline splits into
// busy, wait and wire time, whose sum must match the worker's own wall clock
// within 5%. Workers report their sky-load times, and the coordinator's
// checkpoint hook times each save.
//
// catserve_http: half the fixed-rate stretch runs untraced, half traced; each
// traced request gets spans from due time to send, first byte and done.
// In-process Server.Query on fresh targets gives cold and cached query
// times, and CacheStats deltas give the hit fraction.
//
// # Output checks
//
// infer_spawn2's catalog file must be byte-identical to the in-process
// runtime's written the same way, on the same inputs, for every run, and the
// coordinator's live store must end holding that catalog.
//
// Accuracy against truth is checked on the errors pooled over a run's
// catalogs, four figures each: the median position error, dmag_abs, and the
// shares of sources more than 1 px and more than 0.3 mag off. The last two
// catch a minority of failed fits that leaves the first two nearly unmoved.
// Healthy values (over 55 seeds of infer_scene, 48 of infer_spawn2 and 38
// of catserve_http) and the limits: about one and a half times the worst
// for the first two, one and a half to two times the worst for the tail
// shares, which move by whole sources (a run scores about 150 sources on
// infer_scene and 170 on infer_spawn2):
//
//	                 median px     dmag_abs      > 1 px        > 0.3 mag
//	infer_scene      0.054-0.064   0.054-0.064   0.032-0.112   0.039-0.135
//	  limit          0.09          0.09          0.2           0.25
//	infer_spawn2     0.057-0.059   0.054-0.057   0-0.024       0.155-0.207
//	  limit          0.09          0.075         0.05          0.3
//	catserve_http    0.347-0.357   0.041-0.042   0.003-0.0046  0
//	  limit          0.4           0.05          0.01          0.001
//
// On infer_spawn2 about thirty sources end more than 0.3 mag off in every
// draw: their flux and type errors belong to the scene (see initCatalog), so
// the same faint sources start wrong each time.
//
// The served catalog's errors are the writer's fixed noise, so its limits
// sit close above them.
//
// After the writer stops, sampled catserve_http responses must be
// byte-identical to in-process Server.Query on the same snapshot, with
// entries equal to a direct walk of the snapshot; the inference workloads'
// served catalog must equal the run's catalog entry for entry.
//
// # Probe figures used to size the workloads
//
// Measured on a 2-CPU Intel Xeon VM with Go 1.24.
//
// Cyclades batch collapse: Process plans batches of int(0.34·n) sources, so
// with two to four sources per task every batch holds one source and a second
// thread buys nothing (about 7 s with two threads against 6 to 7 s with one).
// infer_scene therefore keeps about 26 sources per task: batches of 8.
//
// Kernel cost: a full-tier ELBO evaluation costs about 3 µs per pixel visit,
// so a blended multi-epoch Newton iteration costs about 10 ms. A 0.03°
// scene at 60,000 per square degree with three epochs (54 sources per task)
// took 71 s with one thread and 48 s with two; the chosen infer_scene fits 52
// sources in 3 to 4.5 s with two threads, against 6 to 7 s with one: how
// much the second thread buys depends on the Cyclades plan and the sources'
// radii (1.25x to 1.75x over twenty draws). Scene rendering costs 3 to 4 s
// of set-up.
//
// infer_spawn2: about 40 tasks of 50 ms (median); a spawned run takes about
// 2.2 s including worker start (0.2 s of sky load per worker), each worker
// peaks near 190 MB and the coordinator near 195 MB.
//
// catserve_http: the sizing probe behind this workload found a 20k-source
// store with one 256-entry Apply every 50 ms and 80% hot targets sustaining
// 3,000/s at p50 about 0.9 ms and p99 about 5 to 7 ms, while a 200k-source
// store saturated at 1,000/s; hence 20k sources. Here one 256-entry Apply
// takes about 3 ms (p95 5 ms). With the load generated in the same process
// on two CPUs, 2,000/s already left the generator 19 ms late at p99, so the
// fixed rate is 800/s. The generator sleeps in nanosleep: time.Sleep of
// 300 µs took 1.1 ms here, since the runtime's poller rounds
// sub-millisecond waits up, and that rounding would have set the measured
// latency.
package main
