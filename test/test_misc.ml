open Util
module Cpu = Dilos.Cpu

let cpu = Dilos.Kernel.cpu

(* ------------------------------------------------------------------ *)
(* Communication module *)

let comm_queues_distinct () =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 24) () in
      let fabric = Memnode.Server.connect server () in
      let comm = Dilos.Comm.create ~fabric ~cores:2 in
      let qps =
        [
          Dilos.Comm.fault_qp comm ~core:0;
          Dilos.Comm.fault_qp comm ~core:1;
          Dilos.Comm.prefetch_qp comm ~core:0;
          Dilos.Comm.evict_qp comm ~core:0;
          Dilos.Comm.guide_qp comm ~core:0;
        ]
      in
      let names = List.map Rdma.Qp.name qps in
      Alcotest.(check int)
        "all distinct" (List.length names)
        (List.length (List.sort_uniq compare names)))

let comm_no_hol_blocking () =
  (* A long train of prefetch requests must not delay a fault fetch on
     its own queue — the §4.5 property. *)
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 24) () in
      let fabric = Memnode.Server.connect server () in
      let comm = Dilos.Comm.create ~fabric ~cores:1 in
      let pf = Dilos.Comm.prefetch_qp comm ~core:0 in
      let fq = Dilos.Comm.fault_qp comm ~core:0 in
      let buf = Sim.Bigbuf.create 4096 in
      for i = 0 to 63 do
        Rdma.Qp.post_read pf
          ~segs:[ { Rdma.Qp.raddr = Int64.of_int (i * 4096); loff = 0; len = 4096 } ]
          ~buf ~on_complete:ignore
      done;
      let t0 = Sim.Engine.now eng in
      Rdma.Qp.read fq ~raddr:0L ~buf ~off:0 ~len:4096;
      let dt = Sim.Time.to_us (Sim.Time.sub (Sim.Engine.now eng) t0) in
      check_bool
        (Printf.sprintf "fault fetch unaffected (%.2fus)" dt)
        true (dt < 3.5))

let comm_bad_core_rejected () =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 24) () in
      let fabric = Memnode.Server.connect server () in
      let comm = Dilos.Comm.create ~fabric ~cores:2 in
      Alcotest.check_raises "bad core" (Invalid_argument "Comm: bad core")
        (fun () -> ignore (Dilos.Comm.fault_qp comm ~core:2)))

(* ------------------------------------------------------------------ *)
(* Memory node *)

let memnode_serves_data () =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:65536L () in
      let fabric = Memnode.Server.connect server () in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let payload = "persisted on the memory node" in
      let n = String.length payload in
      let src = Sim.Bigbuf.of_string payload in
      Rdma.Qp.write qp ~raddr:1000L ~buf:src ~off:0 ~len:n;
      (* A second connection sees the same bytes (one-sided writes hit
         the store, not connection state). *)
      let fabric2 = Memnode.Server.connect server () in
      let qp2 = Rdma.Fabric.qp fabric2 ~name:"t2" in
      let dst = Sim.Bigbuf.create n in
      Rdma.Qp.read qp2 ~raddr:1000L ~buf:dst ~off:0 ~len:n;
      Alcotest.(check string) "cross-connection" payload
        (Bytes.to_string (Sim.Bigbuf.to_bytes dst ~off:0 ~len:n));
      check_bool "blocks materialized" true
        (Memnode.Page_store.resident_blocks (Memnode.Server.store server) >= 1))

(* ------------------------------------------------------------------ *)
(* Allocator span pooling *)

let span_pool_reuses_mappings () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.ddc_malloc k ~core:0 (32 * 1024) in
      Cpu.write_u64 (cpu k) ~core:0 a 7L;
      Dilos.Kernel.ddc_free k ~core:0 a;
      let b = Dilos.Kernel.ddc_malloc k ~core:0 (32 * 1024) in
      check_i64 "same span reused" a b;
      (* Different size class: different span. *)
      let c = Dilos.Kernel.ddc_malloc k ~core:0 (64 * 1024) in
      check_bool "no cross-size reuse" true (not (Int64.equal c a)))

let span_pool_pages_fully_dead () =
  with_dilos (fun _eng k ->
      let alloc = Dilos.Kernel.allocator k in
      let a = Dilos.Kernel.ddc_malloc k ~core:0 (16 * 1024) in
      Alcotest.(check bool)
        "live span page" true
        (Dilos.Ddc_alloc.live_segments alloc (Int64.logand a (Int64.lognot 0xFFFL))
        = None);
      Dilos.Kernel.ddc_free k ~core:0 a;
      Alcotest.(check bool)
        "pooled span page dead" true
        (Dilos.Ddc_alloc.live_segments alloc (Int64.logand a (Int64.lognot 0xFFFL))
        = Some []))

(* ------------------------------------------------------------------ *)
(* Guide helpers *)

let clamp_qcheck =
  QCheck.Test.make ~name:"clamp_segments: <=3 segs, coverage preserved" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 10) (pair (int_bound 200) (int_range 1 40)))
    (fun raw ->
      (* Build sorted non-overlapping segments from raw pairs. *)
      let segs =
        List.sort compare raw
        |> List.fold_left
             (fun (acc, last_end) (off, len) ->
               let off = Stdlib.max off last_end in
               ((off, len) :: acc, off + len))
             ([], 0)
        |> fst |> List.rev
      in
      let out = Dilos.Guide.clamp_segments segs in
      let covered (o, l) =
        List.exists (fun (o', l') -> o >= o' && o + l <= o' + l') out
      in
      List.length out <= Dilos.Params.guided_max_vector
      && List.for_all covered segs)

let nvme_profile_slower () =
  (* §5.1 ablation support: a custom NIC profile flows through boot. *)
  let gbps nic_config =
    run_sim (fun eng ->
        let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) () in
        let k =
          Dilos.Kernel.boot ~eng ~server ?nic_config
            {
              Dilos.Kernel.local_mem_bytes = 512 * 1024;
              cores = 1;
              prefetch = Dilos.Kernel.Readahead;
              guided_paging = false;
              tcp_emulation = false;
            }
        in
        let n = 1024 in
        let a = Dilos.Kernel.mmap k ~len:(n * 4096) ~ddc:true () in
        for i = 0 to n - 1 do
          Cpu.write_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * 4096))) 1L
        done;
        let t0 = Dilos.Kernel.now k in
        for i = 0 to n - 1 do
          ignore (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * 4096))))
        done;
        Cpu.flush (cpu k) ~core:0;
        let dt = Sim.Time.sub (Dilos.Kernel.now k) t0 in
        Dilos.Kernel.shutdown k;
        dt)
  in
  let nvme =
    { Rdma.Nic.default with Rdma.Nic.base_read_ns = 75_000; base_write_ns = 15_000 }
  in
  let rdma_t = gbps None and nvme_t = gbps (Some nvme) in
  check_bool "nvme slower" true (Int64.compare nvme_t rdma_t > 0)

(* ------------------------------------------------------------------ *)
(* Cross-system integration orderings (tiny-scale paper claims) *)

let redis_get_ordering () =
  let rps system =
    (Apps.Harness.run system ~local_mem:(1024 * 1024) (fun ctx ->
         Apps.Redis_bench.run_get ctx ~keys:512 ~size:(Apps.Redis_bench.Fixed 4080)
           ~queries:1024 ~seed:3))
      .Apps.Harness.value
      .Apps.Redis_bench.throughput_rps
  in
  let dilos = rps (Apps.Harness.Dilos Dilos.Kernel.No_prefetch) in
  let fs = rps Apps.Harness.Fastswap in
  check_bool
    (Printf.sprintf "DiLOS %.0f > Fastswap %.0f (paper 1.37-1.52x)" dilos fs)
    true (dilos > fs)

let lrange_prefetchers_dont_help () =
  let rps prefetch =
    (Apps.Harness.run (Apps.Harness.Dilos prefetch) ~local_mem:(512 * 1024)
       (fun ctx ->
         Apps.Redis_bench.run_lrange ctx ~lists:64 ~elements:10_000 ~elem_size:128
           ~queries:128 ~range:100 ~seed:3))
      .Apps.Harness.value
      .Apps.Redis_bench.throughput_rps
  in
  let none = rps Dilos.Kernel.No_prefetch in
  let ra = rps Dilos.Kernel.Readahead in
  (* Paper Fig. 10(d): general-purpose prefetchers gain nothing on
     pointer chasing. Allow 15% either way. *)
  check_bool
    (Printf.sprintf "readahead %.0f within 15%% of none %.0f" ra none)
    true
    (ra < 1.15 *. none)

let tcp_emulation_slower_end_to_end () =
  let t sys =
    (Apps.Harness.run sys ~local_mem:(512 * 1024) (fun ctx ->
         Apps.Seq.run ctx ~size_bytes:(4 * 1024 * 1024) ~mode:Apps.Seq.Read))
      .Apps.Harness.value
      .Apps.Seq.gbps
  in
  let rdma = t (Apps.Harness.Dilos Dilos.Kernel.No_prefetch) in
  let tcp = t (Apps.Harness.Dilos_tcp Dilos.Kernel.No_prefetch) in
  check_bool (Printf.sprintf "tcp %.2f < rdma %.2f GB/s" tcp rdma) true (tcp < rdma)

let harness_names () =
  Alcotest.(check string) "dilos" "DiLOS/readahead"
    (Apps.Harness.system_name (Apps.Harness.Dilos Dilos.Kernel.Readahead));
  Alcotest.(check string) "guided" "DiLOS-guided/trend-based"
    (Apps.Harness.system_name (Apps.Harness.Dilos_guided Dilos.Kernel.Trend_based));
  Alcotest.(check string) "fastswap" "Fastswap"
    (Apps.Harness.system_name Apps.Harness.Fastswap);
  Alcotest.(check string) "aifm" "AIFM" (Apps.Harness.system_name Apps.Harness.Aifm)

let bandwidth_reset () =
  let eng = Sim.Engine.create () in
  let bw = Rdma.Bandwidth.create eng in
  Rdma.Bandwidth.record bw Rdma.Bandwidth.Rx 10;
  Rdma.Bandwidth.reset bw;
  check_int "reset rx" 0 (Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx);
  Alcotest.(check (list (triple int64 int int))) "reset series" []
    (Rdma.Bandwidth.series bw)

let params_cycles () =
  (* 14,000 cycles at 2.3 GHz is ~6.09 us. *)
  Alcotest.(check bool) "cycles conversion" true
    (Sim.Time.to_us (Dilos.Params.cycles 14_000) > 6.0
    && Sim.Time.to_us (Dilos.Params.cycles 14_000) < 6.2)

let suite =
  [
    quick "comm queues distinct" comm_queues_distinct;
    quick "comm no HOL blocking" comm_no_hol_blocking;
    quick "comm bad core rejected" comm_bad_core_rejected;
    quick "memnode serves data across connections" memnode_serves_data;
    quick "span pool reuses mappings" span_pool_reuses_mappings;
    quick "span pool pages fully dead" span_pool_pages_fully_dead;
    QCheck_alcotest.to_alcotest clamp_qcheck;
    quick "nvme profile slower" nvme_profile_slower;
    quick "redis GET ordering (paper C1)" redis_get_ordering;
    quick "lrange prefetchers don't help (paper fig10d)" lrange_prefetchers_dont_help;
    quick "tcp emulation slower end to end" tcp_emulation_slower_end_to_end;
    quick "harness names" harness_names;
    quick "bandwidth reset" bandwidth_reset;
    quick "params cycles" params_cycles;
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: two boots of the same experiment must agree on every
   counter and on the simulated clock — the property all experiments
   in this repository rely on. *)

let determinism () =
  let run () =
    let r =
      Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
        ~local_mem:(768 * 1024) (fun ctx ->
          let q = Apps.Quicksort.run ctx ~n:30_000 ~seed:5 in
          let g =
            Apps.Redis_bench.run_get ctx ~keys:128
              ~size:(Apps.Redis_bench.Fixed 4080) ~queries:256 ~seed:6
          in
          (q.Apps.Quicksort.sort_time, g.Apps.Redis_bench.throughput_rps))
    in
    (r.Apps.Harness.value, r.Apps.Harness.elapsed,
     Sim.Stats.counters r.Apps.Harness.run_stats)
  in
  let (v1, e1, c1) = run () in
  let (v2, e2, c2) = run () in
  check_i64 "sort time identical" (fst v1) (fst v2);
  Alcotest.(check (float 0.0001)) "rps identical" (snd v1) (snd v2);
  check_i64 "elapsed identical" e1 e2;
  Alcotest.(check (list (pair string int))) "all counters identical" c1 c2

let fault_histogram_sane () =
  with_dilos ~local_mem:(256 * 1024) ~prefetch:Dilos.Kernel.No_prefetch
    (fun _eng k ->
      let n = 256 in
      let a = Dilos.Kernel.mmap k ~len:(n * 4096) ~ddc:true () in
      for i = 0 to n - 1 do
        Cpu.write_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * 4096))) 1L
      done;
      for i = 0 to n - 1 do
        ignore (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * 4096))))
      done;
      let h = Sim.Stats.histogram (Dilos.Kernel.stats k) "fault_ns" in
      let p50 = Sim.Histogram.quantile h 0.5 in
      let p99 = Sim.Histogram.quantile h 0.99 in
      check_bool "p99 >= p50" true (p99 >= p50);
      check_bool "min below mean" true
        (float_of_int (Sim.Histogram.min_value h) <= Sim.Histogram.mean h))

let suite =
  suite
  @ [
      quick "deterministic across runs" determinism;
      quick "fault histogram sane" fault_histogram_sane;
    ]
