(* Tests for the benchmark's OCaml side: the Memif wrappers must not
   move the model, and the timed-phase marks must bracket what the app
   itself times. Python-side helpers are tested by test_run.py. *)

open Perfbench
module H = Apps.Harness

let n = 40_000
let local_mem = n * 4 / 8
let remote_size = Int64.of_int (Workloads.mib 512)

let histo_sums stats =
  List.map
    (fun (name, h) -> (name, Sim.Histogram.count h, Sim.Histogram.sum h))
    (Sim.Stats.histograms stats)

let plain () =
  H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem ~remote_size (fun ctx ->
      Apps.Quicksort.run ctx ~n ~seed:5)

(* The traced configuration of a repetition: marks on [now], the
   counting wrapper on every access, an Obs registry installed. *)
let traced () =
  let marks = ref None and tracer = ref None in
  let r =
    H.run (H.Dilos Dilos.Kernel.Readahead) ~local_mem ~remote_size
      ~obs:(Obs.Registry.create ()) (fun ctx ->
        let tr = Probe.tracer ctx.H.stats in
        let mk =
          Probe.marks
            ~on_stamp:(fun ~first -> Probe.snapshot tr ~first)
            ctx.H.stats ~counters:Workloads.tracked ~histos:[]
        in
        marks := Some mk;
        tracer := Some tr;
        let mem ~core = Probe.wrap tr (Probe.with_now mk (ctx.H.mem ~core)) in
        Apps.Quicksort.run { ctx with H.mem } ~n ~seed:5)
  in
  (r, Option.get !marks, Option.get !tracer)

let fail fmt = Printf.ksprintf failwith fmt

let check name ok = if not ok then fail "FAIL: %s" name else Printf.printf "ok   %s\n" name

let () =
  let p = plain () in
  let t, mk, tr = traced () in
  check "sort verified" (p.H.value.Apps.Quicksort.checked && t.H.value.Apps.Quicksort.checked);
  check "wrapper leaves sim time unchanged"
    (Int64.equal p.H.elapsed t.H.elapsed
    && Int64.equal p.H.value.Apps.Quicksort.sort_time t.H.value.Apps.Quicksort.sort_time);
  check "wrapper leaves counters unchanged"
    (Sim.Stats.counters p.H.run_stats = Sim.Stats.counters t.H.run_stats);
  check "wrapper leaves histograms unchanged"
    (histo_sums p.H.run_stats = histo_sums t.H.run_stats);
  check "marks bracket the app's timed phase"
    (Int64.equal
       (Sim.Time.sub mk.Probe.last_sim mk.Probe.first_sim)
       t.H.value.Apps.Quicksort.sort_time
    && mk.Probe.last_ns > mk.Probe.first_ns);
  (* Inside the timed phase quicksort only reads and writes 4-byte
     elements, so the byte tally is exactly four per call. *)
  let calls = Probe.phase tr Probe.calls in
  check "tracer counts every timed-phase call"
    (calls > n && Probe.phase tr Probe.bytes = 4 * calls);
  check "tracer samples one call in sample_every"
    (Probe.phase tr Probe.hit_n + Probe.phase tr Probe.miss_n
    = (tr.Probe.t_last.(Probe.calls) / Probe.sample_every)
      - (tr.Probe.t_first.(Probe.calls) / Probe.sample_every));
  check "phase deltas cover the sort's faults"
    (List.assoc "major_faults" (Probe.phase_deltas mk) > 0
    && List.assoc "major_faults" (Probe.phase_deltas mk)
       <= Sim.Stats.get t.H.run_stats "major_faults");
  check "json floats keep all digits"
    (String.equal (Jsonw.to_string (Jsonw.Float 0.1)) "0.10000000000000001")
