(* Page-integrity soak: drive a seeded random read/write workload
   through each kernel's memory API while mirroring every operation
   into an in-DRAM reference buffer, then read the whole region back
   and demand bit-exact parity. Local memory is sized at a third of
   the working set so every scenario churns through eviction,
   writeback and refetch — and, in the faulted variants, through
   completion errors, NACK delays, blackouts and the QP retry path.
   Faults may degrade timing, never contents. *)

open Util

let page = 4096
let npages = 192
let region = npages * page
let n_ops = 3_000

(* One random op against both the kernel (through its CPU front end)
   and the reference buffer; reads are checked on the spot. *)
let step rng ~base ~refbuf cpu i =
  let addr off = Int64.add base (Int64.of_int off) in
  match Sim.Rng.int rng 4 with
  | 0 ->
      let off = Sim.Rng.int rng (region / 8) * 8 in
      let v = Sim.Rng.next64 rng in
      Dilos.Cpu.write_u64 cpu ~core:0 (addr off) v;
      Bytes.set_int64_le refbuf off v
  | 1 ->
      let off = Sim.Rng.int rng (region / 8) * 8 in
      check_i64
        (Printf.sprintf "op %d: u64 at %d" i off)
        (Bytes.get_int64_le refbuf off)
        (Dilos.Cpu.read_u64 cpu ~core:0 (addr off))
  | 2 ->
      (* Bulk write, possibly straddling page boundaries. *)
      let len = 1 + Sim.Rng.int rng 1024 in
      let off = Sim.Rng.int rng (region - len) in
      let payload = Bytes.create len in
      Sim.Rng.fill_bytes rng payload;
      Dilos.Cpu.write_bytes cpu ~core:0 (addr off) payload 0 len;
      Bytes.blit payload 0 refbuf off len
  | _ ->
      let len = 1 + Sim.Rng.int rng 1024 in
      let off = Sim.Rng.int rng (region - len) in
      let got = Bytes.create len in
      Dilos.Cpu.read_bytes cpu ~core:0 (addr off) got 0 len;
      Alcotest.(check bytes)
        (Printf.sprintf "op %d: bulk at %d+%d" i off len)
        (Bytes.sub refbuf off len) got

let soak ~seed ~base cpu =
  let refbuf = Bytes.make region '\000' in
  let rng = Sim.Rng.create seed in
  for i = 0 to n_ops - 1 do
    step rng ~base ~refbuf cpu i
  done;
  (* Full read-back: every page, including ones evicted long ago and
     ones never touched (which must still read as zeroes). *)
  let got = Bytes.create page in
  for p = 0 to npages - 1 do
    Dilos.Cpu.read_bytes cpu ~core:0
      (Int64.add base (Int64.of_int (p * page)))
      got 0 page;
    Alcotest.(check bytes)
      (Printf.sprintf "final page %d" p)
      (Bytes.sub refbuf (p * page) page)
      got
  done

let local_mem = 64 * page (* a third of the region: constant churn *)

(* For the shard-kill rows: prove the drill actually landed mid-run
   (a kill scripted past the end of the run would make the row
   vacuous) and that reads really were redirected to the backup. *)
let assert_drill_landed st =
  check_bool "shard kill fired mid-run" true (Sim.Stats.get st "repl_kills" > 0);
  check_bool "reads failed over to the backup" true
    (Sim.Stats.get st "repl_failover_reads" > 0)

let dilos_soak ?fault_spec ?fault_seed ?shards ?replication
    ?(expect_failover = false) ~prefetch ~seed () =
  with_dilos ~local_mem ~prefetch ?fault_spec ?fault_seed ?shards ?replication
    (fun _eng k ->
      let base = Dilos.Kernel.mmap k ~len:region ~ddc:true () in
      soak ~seed ~base (Dilos.Kernel.cpu k);
      Dilos.Kernel.quiesce k;
      if expect_failover then assert_drill_landed (Dilos.Kernel.stats k))

let fastswap_soak ?fault_spec ?fault_seed ?shards ?replication
    ?(expect_failover = false) ~seed () =
  with_fastswap ~local_mem ?fault_spec ?fault_seed ?shards ?replication
    (fun _eng k ->
      let base = Fastswap.Kernel.mmap k ~len:region () in
      soak ~seed ~base (Fastswap.Kernel.cpu k);
      Fastswap.Kernel.quiesce k;
      if expect_failover then assert_drill_landed (Fastswap.Kernel.stats k))

(* Shard-kill specs for the drill rows below. *)
let drill s =
  match Faults.Spec.parse s with
  | Ok t -> Some t
  | Error e -> invalid_arg e

let suite =
  let d name ?shards ?replication ?expect_failover prefetch fault_spec seed =
    quick name (fun () ->
        dilos_soak ?shards ?replication ?expect_failover ~prefetch ?fault_spec
          ~fault_seed:seed ~seed ())
  in
  let f name ?shards ?replication ?expect_failover fault_spec seed =
    quick name (fun () ->
        fastswap_soak ?shards ?replication ?expect_failover ?fault_spec
          ~fault_seed:seed ~seed ())
  in
  [
    d "dilos none, clean" Dilos.Kernel.No_prefetch None 101;
    d "dilos readahead, clean" Dilos.Kernel.Readahead None 102;
    d "dilos trend, clean" Dilos.Kernel.Trend_based None 103;
    f "fastswap, clean" None 104;
    d "dilos none, flaky" Dilos.Kernel.No_prefetch (Some Faults.Spec.flaky) 105;
    d "dilos readahead, flaky" Dilos.Kernel.Readahead (Some Faults.Spec.flaky) 106;
    d "dilos trend, flaky" Dilos.Kernel.Trend_based (Some Faults.Spec.flaky) 107;
    f "fastswap, flaky" (Some Faults.Spec.flaky) 108;
    d "dilos none, blackout" Dilos.Kernel.No_prefetch (Some Faults.Spec.blackout)
      109;
    d "dilos readahead, lossy" Dilos.Kernel.Readahead (Some Faults.Spec.lossy) 110;
    d "dilos trend, blackout" Dilos.Kernel.Trend_based (Some Faults.Spec.blackout)
      111;
    f "fastswap, blackout" (Some Faults.Spec.blackout) 112;
    (* Shard-kill drills: same parity contract while the memnode
       replica group loses a shard mid-run. RF=2 over two shards, so
       every page keeps a live copy; contents must stay bit-identical
       to the reference buffer — failover may cost time, never data. *)
    d "dilos readahead, shard-kill" ~shards:2 ~replication:2
      ~expect_failover:true Dilos.Kernel.Readahead
      (drill "kill-shard=0@100us") 113;
    d "dilos trend, shard-kill + recover" ~shards:2 ~replication:2
      ~expect_failover:true Dilos.Kernel.Trend_based
      (drill "kill-shard=1@100us,recover-shard=1@400us") 114;
    (* Wire faults and a shard death at once: the QP retry path and
       the replica failover path must compose. *)
    d "dilos none, flaky + shard-kill" ~shards:2 ~replication:2
      ~expect_failover:true Dilos.Kernel.No_prefetch
      (drill "flaky,kill-shard=0@150us") 115;
    f "fastswap, shard-kill" ~shards:2 ~replication:2 ~expect_failover:true
      (drill "kill-shard=0@100us") 116;
  ]
