(* The benchmark's workloads and one repetition of one of them.

   Each workload is a system, a memory configuration and an app body.
   Inputs come from the seed alone; the program receives only the
   generated inputs, and the benchmark keeps what it needs to verify
   the outputs. *)

module H = Apps.Harness
module J = Jsonw

let mib n = n * 1024 * 1024
let page = 4096

type body = Scan | Sort | Kv

type spec = {
  name : string;
  system : H.system;
  body : body;
  remote_size : int;
      (** memnode bytes, sized to the data so the run never reserves
          more than the host can commit *)
  shards : int;
  replication : int;
}

let specs =
  [
    {
      name = "scan";
      system = H.Dilos Dilos.Kernel.Readahead;
      body = Scan;
      remote_size = mib 1024;
      shards = 1;
      replication = 1;
    };
    {
      name = "sort";
      system = H.Dilos Dilos.Kernel.Readahead;
      body = Sort;
      remote_size = mib 512;
      shards = 1;
      replication = 1;
    };
    {
      name = "kv-zipf";
      system = H.Dilos Dilos.Kernel.Readahead;
      body = Kv;
      remote_size = mib 512;
      shards = 2;
      replication = 2;
    };
    {
      name = "scan-fastswap";
      system = H.Fastswap;
      body = Scan;
      remote_size = mib 1024;
      shards = 1;
      replication = 1;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* ------------------------------------------------------------------ *)
(* scan: checksummed sequential sweeps of 512 MiB, one page per Memif
   call, then spot checks of seed-chosen pages. Each sweep faults the
   whole region back in; several per repetition give the timed phase
   enough host work to measure steadily.

   The region size stays fixed: Fastswap's simulated time jumps by up
   to 40% when the region shrinks by a few pages, so varying it with
   the seed would make the seed, not the code, decide the figures. The
   seed picks the page contents and the number and places of the spot
   checks, which run after the sweep and so leave its dynamics alone. *)

let scan_local_mem = mib 64
let scan_pages = mib 512 / page
let scan_sweeps = 3
let scan_spots ~seed = 16 + (seed land 31)

let spot ~seed k = ((seed * 7919) + (k * 104_729)) land (scan_pages - 1)

let word ~seed p i =
  let x = (seed * 0x1E3779B97F4A7C15) + (p * 0x3F58476D1CE4E5B9) + (i * 0x14D049BB133111EB) in
  let x = x lxor (x lsr 31) in
  x * 0x2545F4914F6CDD1D

let fill buf ~seed p =
  for i = 0 to (page / 8) - 1 do
    Bytes.set_int64_le buf (i * 8) (Int64.of_int (word ~seed p i))
  done

let checksum buf =
  let acc = ref 0 in
  for i = 0 to (page / 8) - 1 do
    acc := (!acc * 31) + Int64.to_int (Bytes.get_int64_le buf (i * 8))
  done;
  !acc

type outcome = {
  failed : int;
  requests : int;  (** requests the workload generator produced *)
  app : (string * J.t) list;  (** deterministic app results *)
}

let scan (ctx : H.ctx) ~seed =
  let m = ctx.H.mem ~core:0 in
  let pages = scan_pages in
  let base = m.Apps.Memif.malloc (pages * page) in
  let addr p = Int64.add base (Int64.of_int (p * page)) in
  let buf = Bytes.create page in
  let expect = Array.make pages 0 in
  for p = 0 to pages - 1 do
    fill buf ~seed p;
    expect.(p) <- checksum buf;
    m.Apps.Memif.write_bytes (addr p) buf 0 page
  done;
  m.Apps.Memif.flush ();
  ignore (m.Apps.Memif.now ());
  let bad = ref 0 in
  let check p =
    m.Apps.Memif.read_bytes (addr p) buf 0 page;
    if checksum buf <> expect.(p) then incr bad
  in
  for _ = 1 to scan_sweeps do
    for p = 0 to pages - 1 do
      check p
    done
  done;
  for k = 0 to scan_spots ~seed - 1 do
    check (spot ~seed k)
  done;
  m.Apps.Memif.flush ();
  ignore (m.Apps.Memif.now ());
  { failed = !bad; requests = 0; app = [ ("pages", J.Int pages) ] }

(* ------------------------------------------------------------------ *)
(* sort: Apps.Quicksort, 2 M ints, 1/8 of them local. *)

let sort_n = 2_000_000
let sort_local_mem = sort_n * 4 / 8

let sort (ctx : H.ctx) ~seed =
  let r = Apps.Quicksort.run ctx ~n:sort_n ~seed in
  {
    failed = (if r.Apps.Quicksort.checked then 0 else sort_n);
    requests = 0;
    app = [ ("sort_ns", J.Int (Int64.to_int r.Apps.Quicksort.sort_time)) ];
  }

(* ------------------------------------------------------------------ *)
(* kv-zipf: open-loop Redis serving, Poisson arrivals at the nominal
   rate, Zipf 0.99 keys, 95% GET of 4080-byte values. Every GET checks
   the value's page-boundary sentinels inside Apps.Serving. *)

let kv_keys = 4096
let kv_local_mem = kv_keys * 4300 / 8
let kv_rate = 300_000.
let kv_requests = 100_000

let kv_stream ~seed ~rate =
  {
    Workload.Stream.keys = kv_keys;
    theta = 0.99;
    read_fraction = 0.95;
    value_size = Workload.Stream.Fixed 4080;
    arrival = Workload.Arrival.Poisson;
    rate_rps = rate;
    seed;
  }

let latency (r : Apps.Redis_bench.result) =
  J.Obj
    [
      ("requests", J.Int r.Apps.Redis_bench.requests);
      ("p50_us", J.Float r.Apps.Redis_bench.p50_us);
      ("p99_us", J.Float r.Apps.Redis_bench.p99_us);
      ("p999_us", J.Float r.Apps.Redis_bench.p999_us);
    ]

let serve (ctx : H.ctx) ~seed ~rate ~requests ~phases =
  let r =
    Apps.Serving.run ctx
      {
        Apps.Serving.stream = kv_stream ~seed ~rate;
        requests;
        phases;
        workers = 1;
      }
  in
  let ok =
    r.Apps.Serving.completed = requests
    && r.Apps.Serving.gets + r.Apps.Serving.sets = requests
  in
  {
    failed = (if ok then 0 else requests - r.Apps.Serving.completed);
    requests;
    app =
      [
        ("rate_rps", J.Float rate);
        ("completed", J.Int r.Apps.Serving.completed);
        ("gets", J.Int r.Apps.Serving.gets);
        ("sets", J.Int r.Apps.Serving.sets);
        ("max_queue", J.Int r.Apps.Serving.max_queue);
        ("duration_ns", J.Int (Int64.to_int r.Apps.Serving.duration));
        ("response", latency r.Apps.Serving.response);
        ("service", latency r.Apps.Serving.service);
        ( "phases",
          J.List
            (List.map
               (fun ph -> latency ph.Apps.Serving.ph_response)
               r.Apps.Serving.phases) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* One repetition. *)

let local_mem spec =
  match spec.body with
  | Scan -> scan_local_mem
  | Sort -> sort_local_mem
  | Kv -> kv_local_mem

let attempted spec ~seed =
  match spec.body with
  | Scan -> (scan_sweeps * scan_pages) + scan_spots ~seed
  | Sort -> sort_n
  | Kv -> kv_requests

let config spec ~seed =
  J.Obj
    [
      ("workload", J.Str spec.name);
      ("seed", J.Int seed);
      ("system", J.Str (H.system_name spec.system));
      ("local_mem", J.Int (local_mem spec));
      ("remote_size", J.Int spec.remote_size);
      ("shards", J.Int spec.shards);
      ("replication", J.Int spec.replication);
      ( "app",
        match spec.body with
        | Scan ->
            J.Obj
              [
                ("pages", J.Int scan_pages);
                ("sweeps", J.Int scan_sweeps);
                ("spot_checks", J.Int (scan_spots ~seed));
              ]
        | Sort -> J.Obj [ ("n", J.Int sort_n) ]
        | Kv ->
            J.Obj
              [
                ("keys", J.Int kv_keys);
                ("rate_rps", J.Float kv_rate);
                ("requests", J.Int kv_requests);
                ("theta", J.Float 0.99);
                ("read_fraction", J.Float 0.95);
                ("value_bytes", J.Int 4080);
              ] );
    ]

(* Counters whose timed-phase deltas feed the per-layer table. *)
let tracked =
  [
    "major_faults"; "minor_faults"; "fetch_waits"; "zero_fill_faults";
    "evictions"; "writebacks"; "reclaim_stall_ns"; "reclaim_stalls";
    "prefetch_issued"; "direct_reclaims"; "readahead_pages"; "rdma_reads";
    "rdma_writes"; "rdma_read_batches"; "rdma_read_bytes"; "rdma_write_bytes";
    "rdma_retries"; "repl_mirror_writes"; "repl_mirror_bytes";
  ]

let phase_histos =
  [
    "fault_ns"; "fetch_wait_ns"; "minor_fault_ns"; Dilos_trace.attr_kernel;
    Dilos_trace.attr_queue; Dilos_trace.attr_wire; Dilos_trace.attr_backoff;
  ]

let is_attr n =
  List.mem n
    Dilos_trace.[ attr_kernel; attr_queue; attr_wire; attr_backoff ]

let histo h =
  J.Obj
    [
      ("count", J.Int (Sim.Histogram.count h));
      ("sum", J.Int (Sim.Histogram.sum h));
      ("min", J.Int (Sim.Histogram.min_value h));
      ("max", J.Int (Sim.Histogram.max_value h));
      ("p50", J.Int (Sim.Histogram.quantile h 0.5));
      ("p99", J.Int (Sim.Histogram.quantile h 0.99));
    ]

let histos stats ~attr =
  List.filter_map
    (fun (n, h) ->
      if is_attr n = attr && Sim.Histogram.count h > 0 then Some (n, histo h)
      else None)
    (Sim.Stats.histograms stats)

let obs_counters reg =
  List.concat_map
    (fun f ->
      match f.Obs.Registry.f_type with
      | Obs.Registry.Counter ->
          List.filter_map
            (fun s ->
              match s.Obs.Registry.s_value () with
              | Obs.Registry.V v ->
                  let labels =
                    String.concat ","
                      (List.map (fun (k, v) -> k ^ "=" ^ v) s.Obs.Registry.s_labels)
                  in
                  Some (f.Obs.Registry.f_name ^ "{" ^ labels ^ "}", v)
              | Obs.Registry.H _ -> None)
            f.Obs.Registry.f_series
      | Obs.Registry.Gauge | Obs.Registry.Histogram -> [])
    (Obs.Registry.families reg)

(* VmHWM and VmPeak of this process, in KiB. *)
let vm_status () =
  let find key lines =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.equal (String.sub l 0 i) key ->
            Scanf.sscanf (String.sub l (i + 1) (String.length l - i - 1)) " %d" Option.some
        | _ -> None)
      lines
    |> Option.value ~default:0
  in
  let ic = open_in "/proc/self/status" in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  (find "VmHWM" lines, find "VmPeak" lines)

let run_body spec (ctx : H.ctx) ~seed =
  match spec.body with
  | Scan -> scan ctx ~seed
  | Sort -> sort ctx ~seed
  | Kv -> serve ctx ~seed ~rate:kv_rate ~requests:kv_requests ~phases:1

(** One repetition, as the JSON object run.py reads. Traced mode adds
    the Memif wrapper, an Obs registry and trace attribution; the
    simulated results must not move. *)
let rep spec ~seed ~traced =
  if traced then Dilos_trace.set_attribution true;
  let reg = if traced then Some (Obs.Registry.create ()) else None in
  let marks = ref None and tracer = ref None and obs_first = ref [] in
  let t_entry = Probe.clock_ns () in
  let result =
    try
      Ok
        (H.run spec.system ~local_mem:(local_mem spec)
           ~remote_size:(Int64.of_int spec.remote_size) ~shards:spec.shards
           ~replication:spec.replication ?obs:reg (fun ctx ->
             let tr = if traced then Some (Probe.tracer ctx.H.stats) else None in
             let on_stamp ~first =
               Option.iter (fun tr -> Probe.snapshot tr ~first) tr;
               if first then
                 Option.iter (fun r -> obs_first := obs_counters r) reg
             in
             let mk =
               Probe.marks ~on_stamp ctx.H.stats ~counters:tracked
                 ~histos:phase_histos
             in
             marks := Some mk;
             tracer := tr;
             let mem ~core =
               let m = Probe.with_now mk (ctx.H.mem ~core) in
               match tr with Some tr -> Probe.wrap tr m | None -> m
             in
             run_body spec { ctx with H.mem } ~seed))
    with e -> Error (Printexc.to_string e)
  in
  let t_exit = Probe.clock_ns () in
  let hwm, peak = vm_status () in
  let attempted = attempted spec ~seed in
  let secs a b = J.Float (float_of_int (b - a) *. 1e-9) in
  let common =
    [
      ("config", config spec ~seed);
      ("ocaml", J.Str Sys.ocaml_version);
      ("attempted", J.Int attempted);
      ("vm_hwm_kib", J.Int hwm);
      ("vm_peak_kib", J.Int peak);
      ("total_s", secs t_entry t_exit);
    ]
  in
  match (result, !marks) with
  | Error msg, _ -> J.Obj (common @ [ ("failed", J.Int attempted); ("error", J.Str msg) ])
  | Ok _, None | Ok _, Some { Probe.first_ns = 0; _ } ->
      J.Obj
        (common
        @ [ ("failed", J.Int attempted); ("error", J.Str "no timed phase marked") ])
  | Ok r, Some mk ->
      let o = r.H.value in
      let gc_delta f = J.Int (f mk.Probe.gc_last - f mk.Probe.gc_first) in
      let sim =
        J.Obj
          [
            ("elapsed_ns", J.Int (Int64.to_int r.H.elapsed));
            ( "phase_ns",
              J.Int (Int64.to_int (Sim.Time.sub mk.Probe.last_sim mk.Probe.first_sim))
            );
            ("rx_bytes", J.Int r.H.rx_bytes);
            ("tx_bytes", J.Int r.H.tx_bytes);
            ( "counters",
              J.Obj
                (List.map (fun (n, v) -> (n, J.Int v)) (Sim.Stats.counters r.H.run_stats))
            );
            ( "phase_counters",
              J.Obj (List.map (fun (n, v) -> (n, J.Int v)) (Probe.phase_deltas mk)) );
            ("histos", J.Obj (histos r.H.run_stats ~attr:false));
            ("app", J.Obj o.app);
          ]
      in
      let trace =
        match (!tracer, reg) with
        | Some tr, Some reg ->
            let ph s = J.Int (Probe.phase tr s) in
            let obs_end = obs_counters reg in
            [
              ( "trace",
                J.Obj
                  [
                    ( "memif",
                      J.Obj
                        [
                          ("calls", ph Probe.calls);
                          ("bytes", ph Probe.bytes);
                          ("hit_n", ph Probe.hit_n);
                          ("hit_ns", ph Probe.hit_ns);
                          ("miss_n", ph Probe.miss_n);
                          ("miss_ns", ph Probe.miss_ns);
                          ("sample_every", J.Int Probe.sample_every);
                          ("clock_ns", J.Float (Probe.clock_overhead_ns ()));
                        ] );
                    ("attr", J.Obj (histos r.H.run_stats ~attr:true));
                    ( "obs",
                      J.Obj
                        (List.map
                           (fun (n, v) ->
                             let v0 = Option.value ~default:0 (List.assoc_opt n !obs_first) in
                             (n, J.Int (v - v0)))
                           obs_end) );
                  ] );
            ]
        | _ -> []
      in
      J.Obj
        (common
        @ [
            ("failed", J.Int o.failed);
            ("requests", J.Int o.requests);
            ("setup_s", secs t_entry mk.Probe.first_ns);
            ("host_run_s", secs mk.Probe.first_ns mk.Probe.last_ns);
            ( "gc",
              J.Obj
                [
                  ("minor_collections", gc_delta (fun g -> g.Gc.minor_collections));
                  ("major_collections", gc_delta (fun g -> g.Gc.major_collections));
                  ("top_heap_words", J.Int mk.Probe.gc_last.Gc.top_heap_words);
                ] );
            ("sim", sim);
          ]
        @ trace)

(* ------------------------------------------------------------------ *)
(* kv-zipf rate sweep: deterministic, so it runs once per traced run.
   Four report phases let run.py see a backlog that grows. *)

let sweep_rates = [ 200_000.; 250_000.; 300_000.; 350_000.; 400_000.; 450_000. ]
let sweep_requests = 40_000

let sweep ~seed =
  let spec = Option.get (find "kv-zipf") in
  J.List
    (List.map
       (fun rate ->
         let r =
           H.run spec.system ~local_mem:kv_local_mem
             ~remote_size:(Int64.of_int spec.remote_size) ~shards:spec.shards
             ~replication:spec.replication (fun ctx ->
               serve ctx ~seed ~rate ~requests:sweep_requests ~phases:4)
         in
         J.Obj
           (("failed", J.Int r.H.value.failed)
           :: ("attempted", J.Int sweep_requests)
           :: r.H.value.app))
       sweep_rates)
