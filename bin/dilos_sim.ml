(* dilos_sim: run any workload on any memory-disaggregation system
   from the command line.

     dune exec bin/dilos_sim.exe -- run --workload quicksort \
       --system dilos --prefetch readahead --local-mb 8 --scale 1000000

   Prints completion time, throughput-style metrics and the paging
   counters for the run. *)

open Cmdliner
module H = Apps.Harness

type sys_choice =
  | S_dilos
  | S_dilos_guided
  | S_dilos_tcp
  | S_fastswap
  | S_aifm
  | S_aifm_rdma

let system_conv =
  Arg.enum
    [
      ("dilos", S_dilos);
      ("dilos-guided", S_dilos_guided);
      ("dilos-tcp", S_dilos_tcp);
      ("fastswap", S_fastswap);
      ("aifm", S_aifm);
      ("aifm-rdma", S_aifm_rdma);
    ]

let prefetch_conv =
  Arg.enum
    [
      ("none", Dilos.Kernel.No_prefetch);
      ("readahead", Dilos.Kernel.Readahead);
      ("trend", Dilos.Kernel.Trend_based);
    ]

type workload =
  | W_seq_read
  | W_seq_write
  | W_quicksort
  | W_kmeans
  | W_snappy
  | W_dataframe
  | W_pagerank
  | W_bc
  | W_redis_get
  | W_redis_lrange

let workload_conv =
  Arg.enum
    [
      ("seq-read", W_seq_read);
      ("seq-write", W_seq_write);
      ("quicksort", W_quicksort);
      ("kmeans", W_kmeans);
      ("snappy", W_snappy);
      ("dataframe", W_dataframe);
      ("pagerank", W_pagerank);
      ("bc", W_bc);
      ("redis-get", W_redis_get);
      ("redis-lrange", W_redis_lrange);
    ]

let workload_name = function
  | W_seq_read -> "seq-read"
  | W_seq_write -> "seq-write"
  | W_quicksort -> "quicksort"
  | W_kmeans -> "kmeans"
  | W_snappy -> "snappy"
  | W_dataframe -> "dataframe"
  | W_pagerank -> "pagerank"
  | W_bc -> "bc"
  | W_redis_get -> "redis-get"
  | W_redis_lrange -> "redis-lrange"

let to_system sys prefetch =
  match sys with
  | S_dilos -> H.Dilos prefetch
  | S_dilos_guided -> H.Dilos_guided prefetch
  | S_dilos_tcp -> H.Dilos_tcp prefetch
  | S_fastswap -> H.Fastswap
  | S_aifm -> H.Aifm
  | S_aifm_rdma -> H.Aifm_rdma

let parse_fault_spec faults =
  match faults with
  | None -> None
  | Some s -> (
      match Faults.Spec.parse s with
      | Ok spec -> Some spec
      | Error msg ->
          Printf.eprintf "dilos_sim: bad --faults spec: %s\n" msg;
          exit 2)

let print_fault_summary fault_spec fault_seed stats =
  match fault_spec with
  | None -> ()
  | Some spec ->
      let g k = Sim.Stats.get stats k in
      Printf.printf "faults:    %s (seed %d)\n"
        (Format.asprintf "%a" Faults.Spec.pp spec)
        fault_seed;
      Printf.printf
        "           comp-errors %d, timeouts %d, retries %d, nack-delays %d, \
         dup-cqes %d, perm-failures %d\n"
        (g "rdma_comp_errors") (g "rdma_timeouts") (g "rdma_retries")
        (g "rdma_retrans_delays") (g "rdma_dup_completions")
        (g "rdma_perm_failures")

let print_breakdown stats =
  let rows = Trace.breakdown stats in
  if rows = [] then
    print_endline "breakdown: no attributed faults (no remote fetches?)"
  else begin
    let us ns = float_of_int ns /. 1e3 in
    let total_mean =
      List.fold_left (fun acc r -> acc +. r.Trace.bd_mean) 0. rows
    in
    print_endline
      "breakdown: component      count    mean(us)    p50(us)    p99(us)  \
       share";
    List.iter
      (fun r ->
        Printf.printf "           %-10s %9d %11.3f %10.3f %10.3f %5.1f%%\n"
          r.Trace.bd_label r.Trace.bd_count (r.Trace.bd_mean /. 1e3)
          (us r.Trace.bd_p50) (us r.Trace.bd_p99)
          (if total_mean > 0. then 100. *. r.Trace.bd_mean /. total_mean
           else 0.))
      rows;
    let mean_fault =
      match Sim.Stats.histogram_opt stats "fault_ns" with
      | Some h when Sim.Histogram.count h > 0 -> Sim.Histogram.mean h
      | Some _ | None -> 0.
    in
    Printf.printf
      "           components sum to %.3f us; measured mean fault %.3f us\n"
      (total_mean /. 1e3) (mean_fault /. 1e3)
  end

let run_workload workload sys prefetch local_mb scale scale_preset app_aware
    cores seed faults fault_seed trace_file trace_cats trace_validate
    metrics_file metrics_interval_us obs_out breakdown verbose =
  let system = to_system sys prefetch in
  (* A preset pins both knobs to the canonical table (Apps.Scale);
     explicit --scale/--local-mb are ignored when one is given. *)
  let scale, local_mem =
    match scale_preset with
    | None -> (scale, local_mb * 1024 * 1024)
    | Some preset -> (
        match Apps.Scale.dims preset (workload_name workload) with
        | Some d -> (d.Apps.Scale.scale, d.Apps.Scale.local_mem)
        | None ->
            Printf.eprintf "dilos_sim: no %s preset for workload %s\n"
              (Apps.Scale.preset_name preset)
              (workload_name workload);
            exit 2)
  in
  let fault_spec = parse_fault_spec faults in
  (* Attribution histograms are resolved at boot, so the flag must be
     set before the harness boots the kernel. *)
  if breakdown then Trace.set_attribution true;
  (* Same boot-time rule for the Observatory: the registry must be
     ambient before the kernel and QPs resolve their handles. *)
  let obs_reg = Option.map (fun _ -> Obs.Registry.create ()) obs_out in
  let tracer = ref None in
  let sampler = ref None in
  let observe ctx =
    (match trace_file with
    | None -> ()
    | Some _ ->
        let cats = Option.map (String.split_on_char ',') trace_cats in
        let tr = Trace.create ~eng:ctx.H.eng ?cats () in
        Trace.install tr;
        tracer := Some tr);
    match metrics_file with
    | None -> ()
    | Some _ ->
        sampler :=
          Some
            (Trace.Sampler.start ~eng:ctx.H.eng ~stats:ctx.H.stats
               ~interval:(Sim.Time.us metrics_interval_us)
               ())
  in
  let h_run ?cores system ~local_mem f =
    H.run system ~local_mem ?cores ?fault_spec ~fault_seed ?obs:obs_reg
      ~observe f
  in
  let with_guide ctx =
    if app_aware then ignore (Apps.Redis_guide.install ctx)
  in
  let describe, result =
    match workload with
    | W_seq_read ->
        let r =
          h_run system ~local_mem (fun ctx ->
              Apps.Seq.run ctx ~size_bytes:(scale * 4096) ~mode:Apps.Seq.Read)
        in
        ( Printf.sprintf "%.2f GB/s" r.H.value.Apps.Seq.gbps,
          H.{ r with value = () } )
    | W_seq_write ->
        let r =
          h_run system ~local_mem (fun ctx ->
              Apps.Seq.run ctx ~size_bytes:(scale * 4096) ~mode:Apps.Seq.Write)
        in
        (Printf.sprintf "%.2f GB/s" r.H.value.Apps.Seq.gbps, H.{ r with value = () })
    | W_quicksort ->
        let r =
          h_run system ~local_mem (fun ctx -> Apps.Quicksort.run ctx ~n:scale ~seed)
        in
        ( Printf.sprintf "sorted=%b in %.2f ms" r.H.value.Apps.Quicksort.checked
            (Sim.Time.to_ms r.H.value.Apps.Quicksort.sort_time),
          H.{ r with value = () } )
    | W_kmeans ->
        let r =
          h_run system ~local_mem (fun ctx ->
              Apps.Kmeans.run ctx ~n:scale ~k:10 ~iters:3 ~seed)
        in
        ( Printf.sprintf "%.2f ms (inertia %.3g)"
            (Sim.Time.to_ms r.H.value.Apps.Kmeans.cluster_time)
            r.H.value.Apps.Kmeans.inertia,
          H.{ r with value = () } )
    | W_snappy ->
        let r =
          h_run system ~local_mem (fun ctx ->
              Apps.Snappy.run_compress ctx ~files:4 ~file_bytes:(scale * 1024) ~seed)
        in
        ( Printf.sprintf "%.2f ms (%d -> %d bytes)"
            (Sim.Time.to_ms r.H.value.Apps.Snappy.time)
            r.H.value.Apps.Snappy.input_bytes r.H.value.Apps.Snappy.output_bytes,
          H.{ r with value = () } )
    | W_dataframe ->
        let r =
          h_run system ~local_mem (fun ctx ->
              let df = Apps.Dataframe.create ctx ~rows:scale ~seed in
              Apps.Dataframe.run_workload df)
        in
        ( Printf.sprintf "%.2f ms" (Sim.Time.to_ms r.H.value.Apps.Dataframe.total_time),
          H.{ r with value = () } )
    | W_pagerank ->
        let r =
          h_run system ~local_mem ~cores (fun ctx ->
              let g = Apps.Graph.generate ctx ~n:scale ~avg_deg:16 ~seed in
              Apps.Graph.pagerank ctx g ~iters:5 ~threads:cores)
        in
        ( Printf.sprintf "%.2f ms (score sum %.4f)"
            (Sim.Time.to_ms r.H.value.Apps.Graph.pr_time)
            r.H.value.Apps.Graph.score_sum,
          H.{ r with value = () } )
    | W_bc ->
        let r =
          h_run system ~local_mem ~cores (fun ctx ->
              let g = Apps.Graph.generate ctx ~n:scale ~avg_deg:16 ~seed in
              Apps.Graph.betweenness ctx g ~sources:8 ~threads:cores ~seed)
        in
        ( Printf.sprintf "%.2f ms (max centrality %.1f)"
            (Sim.Time.to_ms r.H.value.Apps.Graph.bc_time)
            r.H.value.Apps.Graph.max_centrality,
          H.{ r with value = () } )
    | W_redis_get ->
        let r =
          h_run system ~local_mem (fun ctx ->
              with_guide ctx;
              Apps.Redis_bench.run_get ctx ~keys:scale
                ~size:(Apps.Redis_bench.Fixed 4096) ~queries:scale ~seed)
        in
        ( Printf.sprintf "%.0f req/s, p99 %.0f us"
            r.H.value.Apps.Redis_bench.throughput_rps r.H.value.Apps.Redis_bench.p99_us,
          H.{ r with value = () } )
    | W_redis_lrange ->
        let r =
          h_run system ~local_mem (fun ctx ->
              with_guide ctx;
              Apps.Redis_bench.run_lrange ctx ~lists:(scale / 100)
                ~elements:scale ~elem_size:256 ~queries:(scale / 100) ~range:100
                ~seed)
        in
        ( Printf.sprintf "%.0f req/s, p99 %.0f us"
            r.H.value.Apps.Redis_bench.throughput_rps r.H.value.Apps.Redis_bench.p99_us,
          H.{ r with value = () } )
  in
  Printf.printf "system:    %s%s\n" (H.system_name system)
    (if app_aware then " + app-aware guide" else "");
  Printf.printf "local mem: %d MiB\n" (local_mem / (1024 * 1024));
  Printf.printf "result:    %s\n" describe;
  Printf.printf "simulated: %.3f ms\n" (Sim.Time.to_ms result.H.elapsed);
  Printf.printf "traffic:   rx %.2f MB, tx %.2f MB\n"
    (float_of_int result.H.rx_bytes /. 1e6)
    (float_of_int result.H.tx_bytes /. 1e6);
  print_fault_summary fault_spec fault_seed result.H.run_stats;
  (match (trace_file, !tracer) with
  | Some file, Some tr ->
      Trace.write_json tr file;
      Printf.printf "trace:     %s (%d events, %d dropped)\n" file
        (Trace.recorded tr) (Trace.dropped tr);
      Trace.uninstall ();
      if trace_validate then begin
        let text =
          In_channel.with_open_bin file (fun ic -> In_channel.input_all ic)
        in
        match Trace.Json.parse text with
        | Ok v ->
            let events =
              match Trace.Json.member "traceEvents" v with
              | Some (Trace.Json.Arr l) -> List.length l
              | Some _ | None ->
                  Printf.eprintf "dilos_sim: trace has no traceEvents array\n";
                  exit 1
            in
            Printf.printf "trace-validate: ok (%d JSON events)\n" events
        | Error msg ->
            Printf.eprintf "dilos_sim: trace JSON invalid: %s\n" msg;
            exit 1
      end
  | (Some _ | None), _ -> ());
  (match (metrics_file, !sampler) with
  | Some file, Some s ->
      Trace.Sampler.write_csv s file;
      Printf.printf "metrics:   %s (%d intervals of %d us)\n" file
        (Trace.Sampler.rows s) metrics_interval_us
  | (Some _ | None), _ -> ());
  (match (obs_out, obs_reg) with
  | Some file, Some reg ->
      Obs.Openmetrics.write ~stats:result.H.run_stats reg file;
      Printf.printf "obs:       %s (OpenMetrics)\n" file
  | _ -> ());
  if breakdown then print_breakdown result.H.run_stats;
  if verbose then begin
    print_endline "counters:";
    List.iter
      (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
      (Sim.Stats.counters result.H.run_stats)
  end

let run_cmd, run_term =
  let workload =
    Arg.(
      required
      & opt (some workload_conv) None
      & info [ "w"; "workload"; "app" ] ~doc:"Workload to run.")
  in
  let system =
    Arg.(value & opt system_conv S_dilos & info [ "s"; "system" ] ~doc:"Memory system.")
  in
  let prefetch =
    Arg.(
      value
      & opt prefetch_conv Dilos.Kernel.Readahead
      & info [ "p"; "prefetch" ] ~doc:"DiLOS prefetcher (none|readahead|trend).")
  in
  let local_mb =
    Arg.(value & opt int 1 & info [ "local-mb" ] ~doc:"Local DRAM budget in MiB.")
  in
  let scale =
    Arg.(
      value & opt int 500_000
      & info [ "scale" ] ~doc:"Workload size (elements/rows/keys/pages).")
  in
  let scale_preset =
    Arg.(
      value
      & opt (some (enum [ ("paper", Apps.Scale.Paper); ("reduced", Apps.Scale.Reduced) ])) None
      & info [ "scale-preset" ]
          ~docv:"PRESET"
          ~doc:
            "Run the workload at a canonical scale instead of --scale: \
             $(b,paper) is the source paper's evaluation scale (20 GiB \
             working sets, 8 GiB local DRAM), $(b,reduced) the seconds-long \
             bench/CI scale. Overrides --scale and --local-mb.")
  in
  let app_aware =
    Arg.(
      value & flag
      & info [ "app-aware" ] ~doc:"Install the Redis app-aware prefetch guide.")
  in
  let cores = Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Simulated cores.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ]
          ~docv:"SPEC"
          ~doc:
            "Deterministic fault-injection scenario for the RDMA data path. \
             A comma-separated list of presets (flaky|lossy|blackout|meltdown) \
             and key=value settings: err=RATE, nack=RATE, dup=RATE, \
             nack-delay=DUR, timeout=DUR, retries=N, backoff=DUR, \
             backoff-max=DUR, blackout=LEN\\@START, blackout-every=DUR, \
             blackout-len=DUR. Durations take ns/us/ms/s suffixes. Example: \
             --faults flaky,err=0.05,blackout-every=10ms.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ]
          ~doc:"Seed for the fault campaign RNG (same seed, same faults).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a deterministic trace of the paging data path and write \
             it as Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev \
             or chrome://tracing). Same seed, byte-identical file.")
  in
  let trace_cats =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-cats" ] ~docv:"LIST"
          ~doc:
            "Comma-separated trace categories to record \
             (fault,prefetch,rdma,swap,memnode). Default: all.")
  in
  let trace_validate =
    Arg.(
      value & flag
      & info [ "trace-validate" ]
          ~doc:
            "After writing the trace, parse the JSON back and fail (exit 1) \
             if it is malformed. Used by CI smoke tests.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write interval-sampled counter deltas as CSV (one row per \
             sampling interval) for time-series plots of fault/fetch rates.")
  in
  let metrics_interval_us =
    Arg.(
      value & opt int 100
      & info [ "metrics-interval-us" ] ~docv:"N"
          ~doc:"Sampling interval for --metrics, in simulated microseconds.")
  in
  let obs_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Install an Observatory metric registry for the run and write the \
             labeled families plus the flat counters as an OpenMetrics \
             (Prometheus text) exposition. Deterministic: same seed, \
             byte-identical file.")
  in
  let breakdown =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:
            "Attribute every major fault's latency to \
             kernel/queueing/wire/backoff components (the paper's Fig. 9) and \
             print the per-component histogram table.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump counters.") in
  let term =
    Term.(
      const run_workload $ workload $ system $ prefetch $ local_mb $ scale
      $ scale_preset $ app_aware $ cores $ seed $ faults $ fault_seed
      $ trace_file $ trace_cats $ trace_validate $ metrics_file
      $ metrics_interval_us $ obs_out $ breakdown $ verbose)
  in
  (Cmd.v (Cmd.info "run" ~doc:"Run one workload on one system") term, term)

(* ------------------------------------------------------------------ *)
(* serve: open-loop Zipf serving harness (coordinated-omission-free
   tail latency; see DESIGN.md §7). *)

let value_size_conv =
  let parse s =
    if String.equal s "fb" then Ok Workload.Stream.Fb_mixed
    else
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Workload.Stream.Fixed n)
      | Some _ | None ->
          Error (`Msg "value size must be a positive byte count or \"fb\"")
  in
  let print ppf = function
    | Workload.Stream.Fixed n -> Format.fprintf ppf "%d" n
    | Workload.Stream.Fb_mixed -> Format.pp_print_string ppf "fb"
  in
  Arg.conv (parse, print)

let arrival_conv =
  Arg.enum
    [ ("poisson", Workload.Arrival.Poisson); ("fixed", Workload.Arrival.Fixed) ]

let parse_sweep s =
  let parts = String.split_on_char ',' s in
  let rates =
    List.filter_map
      (fun p ->
        let p = String.trim p in
        if String.length p = 0 then None
        else
          match float_of_string_opt p with
          | Some r when r > 0. -> Some r
          | Some _ | None ->
              Printf.eprintf "dilos_sim: bad --sweep rate %S\n" p;
              exit 2)
      parts
  in
  if rates = [] then begin
    Printf.eprintf "dilos_sim: --sweep needs at least one rate\n";
    exit 2
  end;
  rates

(* Deterministic JSON: fixed field order, fixed float precision, no
   wall-clock anywhere — the same seed must produce a byte-identical
   file (CI asserts this). *)
let serve_json oc ~system_name ~local_mb ~seed ~fault_desc
    (points : (float * Apps.Serving.result) list) =
  let p fmt = Printf.fprintf oc fmt in
  let lat (r : Apps.Redis_bench.result) =
    Printf.sprintf
      "{\"kind\": \"%s\", \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": \
       %.3f}"
      (Apps.Redis_bench.latency_kind_name r.Apps.Redis_bench.latency_kind)
      r.Apps.Redis_bench.p50_us r.Apps.Redis_bench.p99_us
      r.Apps.Redis_bench.p999_us
  in
  p "{\n  \"system\": \"%s\",\n  \"local_mb\": %d,\n  \"seed\": %d,\n"
    system_name local_mb seed;
  p "  \"faults\": %s,\n"
    (match fault_desc with
    | None -> "null"
    | Some d -> Printf.sprintf "\"%s\"" d);
  p "  \"points\": [\n";
  List.iteri
    (fun i (offered, (r : Apps.Serving.result)) ->
      p "    {\"offered_rps\": %.1f, \"achieved_rps\": %.1f, " offered
        r.Apps.Serving.achieved_rps;
      p "\"completed\": %d, \"gets\": %d, \"sets\": %d, " r.Apps.Serving.completed
        r.Apps.Serving.gets r.Apps.Serving.sets;
      p "\"duration_ms\": %.3f, \"max_queue\": %d,\n"
        (Sim.Time.to_ms r.Apps.Serving.duration)
        r.Apps.Serving.max_queue;
      p "     \"response\": %s,\n     \"service\": %s,\n"
        (lat r.Apps.Serving.response) (lat r.Apps.Serving.service);
      p "     \"phases\": [";
      List.iteri
        (fun j (ph : Apps.Serving.phase) ->
          p "%s{\"phase\": %d, \"requests\": %d, \"response\": %s, \
             \"service\": %s}"
            (if j = 0 then "" else ", ")
            ph.Apps.Serving.phase_index
            ph.Apps.Serving.ph_response.Apps.Redis_bench.requests
            (lat ph.Apps.Serving.ph_response)
            (lat ph.Apps.Serving.ph_service))
        r.Apps.Serving.phases;
      p "]}%s\n" (if i = List.length points - 1 then "" else ","))
    points;
  p "  ]\n}\n"

let run_serve sys prefetch local_mb seed keys value_size arrival rate zipf
    rw_mix duration_s requests phases workers sweep json_file faults fault_seed
    breakdown verbose =
  let system = to_system sys prefetch in
  let local_mem = local_mb * 1024 * 1024 in
  let fault_spec = parse_fault_spec faults in
  if breakdown then Trace.set_attribution true;
  let rates = match sweep with None -> [ rate ] | Some s -> parse_sweep s in
  let point offered =
    let n =
      if requests > 0 then requests
      else Int.max 1 (int_of_float (Float.round (offered *. duration_s)))
    in
    let scfg =
      {
        Workload.Stream.keys;
        theta = zipf;
        read_fraction = rw_mix;
        value_size;
        arrival;
        rate_rps = offered;
        seed;
      }
    in
    let cfg = { Apps.Serving.stream = scfg; requests = n; phases; workers } in
    H.run system ~local_mem ?fault_spec ~fault_seed (fun ctx ->
        Apps.Serving.run ctx cfg)
  in
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "local mem: %d MiB\n" (local_mem / (1024 * 1024));
  Printf.printf
    "workload:  %d keys, zipf %.2f, %.0f%% reads, %s arrivals, seed %d\n" keys
    zipf (rw_mix *. 100.)
    (match arrival with
    | Workload.Arrival.Poisson -> "poisson"
    | Workload.Arrival.Fixed -> "fixed")
    seed;
  print_endline
    "  offered(rps)  achieved(rps)   done  maxq   resp p50/p99/p99.9 (us)      \
     svc p50/p99 (us)";
  let results =
    List.map
      (fun offered ->
        let res = point offered in
        let r = res.H.value in
        let rr = r.Apps.Serving.response and sv = r.Apps.Serving.service in
        Printf.printf
          "  %12.0f  %13.0f %6d %5d   %8.1f %8.1f %8.1f   %8.1f %8.1f\n%!"
          offered r.Apps.Serving.achieved_rps r.Apps.Serving.completed
          r.Apps.Serving.max_queue rr.Apps.Redis_bench.p50_us
          rr.Apps.Redis_bench.p99_us rr.Apps.Redis_bench.p999_us
          sv.Apps.Redis_bench.p50_us sv.Apps.Redis_bench.p99_us;
        if phases > 1 then
          List.iter
            (fun (ph : Apps.Serving.phase) ->
              let pr = ph.Apps.Serving.ph_response in
              Printf.printf
                "      phase %d: %d reqs, resp p99 %.1f us, svc p99 %.1f us\n"
                ph.Apps.Serving.phase_index pr.Apps.Redis_bench.requests
                pr.Apps.Redis_bench.p99_us
                ph.Apps.Serving.ph_service.Apps.Redis_bench.p99_us)
            r.Apps.Serving.phases;
        print_fault_summary fault_spec fault_seed res.H.run_stats;
        if breakdown then print_breakdown res.H.run_stats;
        if verbose then
          List.iter
            (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
            (Sim.Stats.counters res.H.run_stats);
        (offered, r))
      rates
  in
  match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      serve_json oc ~system_name:(H.system_name system) ~local_mb ~seed
        ~fault_desc:faults results;
      close_out oc;
      Printf.printf "report:    %s\n" file

let serve_cmd =
  let system =
    Arg.(value & opt system_conv S_dilos & info [ "s"; "system" ] ~doc:"Memory system.")
  in
  let prefetch =
    Arg.(
      value
      & opt prefetch_conv Dilos.Kernel.Readahead
      & info [ "p"; "prefetch" ] ~doc:"DiLOS prefetcher (none|readahead|trend).")
  in
  let local_mb =
    Arg.(value & opt int 4 & info [ "local-mb" ] ~doc:"Local DRAM budget in MiB.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let keys =
    Arg.(value & opt int 4096 & info [ "keys" ] ~doc:"Keyspace size.")
  in
  let value_size =
    Arg.(
      value
      & opt value_size_conv (Workload.Stream.Fixed 4080)
      & info [ "value-size" ] ~docv:"BYTES|fb"
          ~doc:
            "Value size in bytes, or \"fb\" for the Facebook-photo mixed \
             distribution. Default 4080 (one page with the SDS header).")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv Workload.Arrival.Poisson
      & info [ "arrival" ] ~doc:"Arrival process (poisson|fixed).")
  in
  let rate =
    Arg.(
      value & opt float 50_000.
      & info [ "arrival-rate" ] ~docv:"RPS"
          ~doc:"Offered load in requests per second of simulated time.")
  in
  let zipf =
    Arg.(
      value & opt float 0.99
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipf key-popularity skew; 0 = uniform, 0.99 = YCSB-style.")
  in
  let rw_mix =
    Arg.(
      value & opt float 0.95
      & info [ "rw-mix" ] ~docv:"READ_FRACTION"
          ~doc:"Fraction of requests that are GETs (rest are SETs).")
  in
  let duration_s =
    Arg.(
      value & opt float 0.25
      & info [ "duration-s" ]
          ~doc:
            "Simulated seconds of offered load per point; the request count \
             is rate * duration unless --requests overrides it.")
  in
  let requests =
    Arg.(
      value & opt int 0
      & info [ "requests" ]
          ~doc:"Exact request count per point (0 = derive from duration).")
  in
  let phases =
    Arg.(
      value & opt int 1
      & info [ "phases" ] ~doc:"Report percentiles per N equal-count phases.")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ]
          ~doc:"Server fibers draining the queue (1 = single-threaded Redis).")
  in
  let sweep =
    Arg.(
      value
      & opt (some string) None
      & info [ "sweep" ] ~docv:"R1,R2,..."
          ~doc:
            "Comma-separated offered loads (rps); runs one fresh system per \
             point for an offered-vs-achieved knee curve. Overrides \
             --arrival-rate.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the sweep report as JSON. Deterministic: same seed, \
             byte-identical file.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:"Fault-injection scenario (same language as `run --faults`).")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Fault campaign seed.")
  in
  let breakdown =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:"Print the per-fault latency attribution for every point.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump counters.") in
  let term =
    Term.(
      const run_serve $ system $ prefetch $ local_mb $ seed $ keys $ value_size
      $ arrival $ rate $ zipf $ rw_mix $ duration_s $ requests $ phases
      $ workers $ sweep $ json_file $ faults $ fault_seed $ breakdown $ verbose)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop Zipf serving harness: offered load on the simulated \
          clock, response-time tails that include queueing delay \
          (coordinated-omission-free), saturation-knee sweeps")
    term

(* ------------------------------------------------------------------ *)
(* drill: scripted shard-kill recovery drills on a replicated memory
   node (see DESIGN.md §9). Exit codes: 0 ok, 1 digest mismatch,
   2 usage, 4 page irrecoverably lost (every replica dead). *)

let exit_page_lost = 4

let drill_apps_of_string s =
  if String.equal s "all" then Apps.Drill.apps
  else
    List.map
      (fun tok ->
        match Apps.Drill.app_of_string (String.trim tok) with
        | Some a -> a
        | None ->
            Printf.eprintf
              "dilos_sim: unknown drill app %S (seq|quicksort|kmeans|redis|all)\n"
              tok;
            exit 2)
      (String.split_on_char ',' s)

let run_drill sys prefetch app_str local_mb scale seed shards replication
    kill_shard detect_us recover_after_us json_file verbose =
  let system = to_system sys prefetch in
  let apps = drill_apps_of_string app_str in
  if replication < 1 || shards < replication then begin
    Printf.eprintf "dilos_sim: need 1 <= replication <= shards\n";
    exit 2
  end;
  if kill_shard < 0 || kill_shard >= Int.max shards replication then begin
    Printf.eprintf "dilos_sim: --kill-shard out of range\n";
    exit 2
  end;
  let recover_after =
    match recover_after_us with
    | None -> None
    | Some us -> Some (Sim.Time.us us)
  in
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "replicas:  %d shards, replication %d, kill shard %d\n" shards
    replication kill_shard;
  let results =
    List.map
      (fun app ->
        let r =
          try
            Apps.Drill.run ~system ~app ?scale
              ~local_mem:(local_mb * 1024 * 1024) ~seed ~shards ~replication
              ~kill_shard
              ~detect:(Sim.Time.us detect_us)
              ?recover_after ()
          with
          | Dilos.Cpu.Page_lost addr ->
            Printf.eprintf
              "dilos_sim: page at 0x%Lx irrecoverably lost (every replica \
               dead)\n"
              addr;
            exit exit_page_lost
        in
        Format.printf "  %a@." Apps.Drill.pp r;
        if verbose then print_string (Apps.Drill.to_json r);
        r)
      apps
  in
  (match json_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Drill.report_json results));
      Printf.printf "report:    %s\n" file);
  if List.exists (fun r -> not r.Apps.Drill.r_match) results then begin
    Printf.eprintf "dilos_sim: drill digest MISMATCH — data diverged\n";
    exit 1
  end

let drill_cmd =
  let system =
    Arg.(value & opt system_conv S_dilos & info [ "s"; "system" ] ~doc:"Memory system.")
  in
  let prefetch =
    Arg.(
      value
      & opt prefetch_conv Dilos.Kernel.Readahead
      & info [ "p"; "prefetch" ] ~doc:"DiLOS prefetcher (none|readahead|trend).")
  in
  let app_arg =
    Arg.(
      value & opt string "all"
      & info [ "a"; "app" ] ~docv:"APPS"
          ~doc:
            "Comma-separated drill kernels (seq|quicksort|kmeans|redis), or \
             $(b,all).")
  in
  let local_mb =
    Arg.(value & opt int 1 & info [ "local-mb" ] ~doc:"Local DRAM budget in MiB.")
  in
  let scale =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale" ] ~doc:"Workload size override (per-app default otherwise).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:"Drives the workload, the kill instant and the fault RNG.")
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Memnode shard instances.")
  in
  let replication =
    Arg.(value & opt int 2 & info [ "replication" ] ~doc:"Copies per page.")
  in
  let kill_shard =
    Arg.(value & opt int 0 & info [ "kill-shard" ] ~doc:"Shard to kill.")
  in
  let detect_us =
    Arg.(
      value & opt int 50
      & info [ "detect-us" ]
          ~doc:
            "Failure-detection outage: a blackout window of this many \
             microseconds starts at the kill instant.")
  in
  let recover_after_us =
    Arg.(
      value
      & opt (some int) None
      & info [ "recover-after-us" ]
          ~doc:
            "Also restart the killed shard this many simulated microseconds \
             after the kill and re-replicate in the background.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the drill report as JSON. Deterministic: same seed, \
             byte-identical file (CI cmps a double run).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-app JSON.")
  in
  let term =
    Term.(
      const run_drill $ system $ prefetch $ app_arg $ local_mb $ scale $ seed
      $ shards $ replication $ kill_shard $ detect_us $ recover_after_us
      $ json_file $ verbose)
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Recovery drill: run a kernel on a replicated memory node, kill a \
          shard at a seeded instant, verify the result is bit-identical to a \
          failure-free run, and report failover/recovery metrics")
    term

(* ------------------------------------------------------------------ *)
(* report: the Observatory scenario matrix (see DESIGN.md §6). One
   seed through clean / flaky / flaky-kill / overload, each with a
   fresh labeled registry, health monitor, tracer and attribution;
   emits a deterministic JSON run-report plus optional OpenMetrics and
   flamegraph collapsed-stack artifacts. Exit codes: 0 ok, 1 health
   signature or reconciliation failure, 2 usage. *)

let run_report sys prefetch app_str local_mb scale seed json_file om_file
    folded_file check verbose =
  let system = to_system sys prefetch in
  let app =
    match Apps.Drill.app_of_string app_str with
    | Some a -> a
    | None ->
        Printf.eprintf
          "dilos_sim: unknown report app %S (seq|quicksort|kmeans|redis)\n"
          app_str;
        exit 2
  in
  let outcomes =
    Apps.Observatory.run_matrix ~system ~app ?scale
      ~local_mem:(local_mb * 1024 * 1024) ~seed ()
  in
  Printf.printf "system:    %s\n" (H.system_name system);
  Printf.printf "matrix:    app %s, seed %d\n" app_str seed;
  List.iter
    (fun (o : Apps.Observatory.outcome) ->
      Printf.printf
        "  %-10s %8.3f ms, %2d health ticks, %d events%s, profile %s\n"
        o.Apps.Observatory.o_name
        (float_of_int o.Apps.Observatory.o_elapsed_ns /. 1e6)
        o.Apps.Observatory.o_ticks
        (List.length o.Apps.Observatory.o_events)
        (match o.Apps.Observatory.o_digest with
        | Some _ -> ""
        | None -> " (serving)")
        (if Apps.Observatory.reconciles o then "reconciles" else "DOES NOT RECONCILE");
      List.iter
        (fun (e : Obs.Health.event) ->
          Printf.printf "      [%s] %s%s value=%d threshold=%d @ %.3f ms\n"
            (Obs.Health.severity_name e.Obs.Health.he_severity)
            e.Obs.Health.he_rule
            (if e.Obs.Health.he_subject = "" then ""
             else " {" ^ e.Obs.Health.he_subject ^ "}")
            e.Obs.Health.he_value e.Obs.Health.he_threshold
            (Int64.to_float e.Obs.Health.he_t /. 1e6))
        o.Apps.Observatory.o_events)
    outcomes;
  let fired = Apps.Observatory.event_rules outcomes in
  Printf.printf "rules:     %s\n"
    (if fired = [] then "(none fired)" else String.concat ", " fired);
  (match json_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Apps.Observatory.report_json ~system ~seed outcomes));
      Printf.printf "report:    %s\n" file);
  let kill_outcome =
    List.find
      (fun o -> o.Apps.Observatory.o_name = "flaky-kill")
      outcomes
  in
  (match om_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Observatory.openmetrics kill_outcome));
      Printf.printf "metrics:   %s (OpenMetrics, flaky-kill scenario)\n" file);
  (match folded_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Apps.Observatory.folded kill_outcome));
      Printf.printf "profile:   %s (collapsed stacks, flaky-kill scenario; \
                     feed to flamegraph.pl)\n"
        file);
  if verbose then
    print_string (Apps.Observatory.report_json ~system ~seed outcomes);
  if check then begin
    let clean_quiet =
      List.for_all
        (fun o ->
          o.Apps.Observatory.o_name <> "clean"
          || o.Apps.Observatory.o_events = [])
        outcomes
    in
    let expected = [ "queue-depth-ceiling"; "resync-backlog"; "retry-storm" ] in
    let missing = List.filter (fun r -> not (List.mem r fired)) expected in
    let reconciled = List.for_all Apps.Observatory.reconciles outcomes in
    if not clean_quiet then
      Printf.eprintf "dilos_sim: clean scenario fired health events\n";
    if missing <> [] then
      Printf.eprintf "dilos_sim: expected rules did not fire: %s\n"
        (String.concat ", " missing);
    if not reconciled then
      Printf.eprintf "dilos_sim: a profile does not reconcile with its \
                      attribution sums\n";
    if (not clean_quiet) || missing <> [] || not reconciled then exit 1
  end

let report_cmd =
  let system =
    Arg.(value & opt system_conv S_dilos & info [ "s"; "system" ] ~doc:"Memory system.")
  in
  let prefetch =
    Arg.(
      value
      & opt prefetch_conv Dilos.Kernel.Readahead
      & info [ "p"; "prefetch" ] ~doc:"DiLOS prefetcher (none|readahead|trend).")
  in
  let app_arg =
    Arg.(
      value & opt string "seq"
      & info [ "a"; "app" ] ~docv:"APP"
          ~doc:"Drill kernel for the fault scenarios (seq|quicksort|kmeans|redis).")
  in
  let local_mb =
    Arg.(value & opt int 1 & info [ "local-mb" ] ~doc:"Local DRAM budget in MiB.")
  in
  let scale =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale" ] ~doc:"Workload size override (per-app default otherwise).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:"Drives the workloads, the kill instant and the fault RNG.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the structured run-report (per-scenario labeled metrics, \
             health events, flame profile). Deterministic: same seed, \
             byte-identical file (CI cmps a double run).")
  in
  let om_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:"Write the flaky-kill scenario's OpenMetrics exposition.")
  in
  let folded_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write the flaky-kill scenario's flamegraph collapsed stacks \
             (sim-time weights; render with flamegraph.pl or speedscope).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Fail (exit 1) unless the health signature holds: clean fires \
             nothing, retry-storm / resync-backlog / queue-depth-ceiling all \
             fire somewhere in the matrix, and every scenario's flame profile \
             reconciles exactly with its fault-attribution sums.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the JSON report.")
  in
  let term =
    Term.(
      const run_report $ system $ prefetch $ app_arg $ local_mb $ scale $ seed
      $ json_file $ om_file $ folded_file $ check $ verbose)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Observatory scenario matrix: run one seed through clean / flaky / \
          shard-kill / overload scenarios with labeled metrics, deterministic \
          health monitors and sim-time flame profiles, and emit a \
          byte-stable structured report")
    term

let () =
  let doc = "DiLOS memory-disaggregation simulator" in
  (* [run] is also the default command, so
     `dilos_sim.exe --app quicksort --trace t.json` works without the
     subcommand name. *)
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term (Cmd.info "dilos_sim" ~doc)
          [ run_cmd; serve_cmd; drill_cmd; report_cmd ]))
