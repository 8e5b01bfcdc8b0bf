(* Unit costs: host nanoseconds of one operation at each layer
   boundary, each timed on a public function. run.py multiplies them
   by the traced run's counts to split host time by layer. *)

module J = Jsonw

let trials = 5

(* Median over [trials] of [f ()], which returns ns per operation. *)
let median f =
  ignore (f ());
  let a = Array.init trials (fun _ -> f ()) in
  Array.sort Float.compare a;
  a.(trials / 2)

let per_op n t0 = float_of_int (Probe.clock_ns () - t0) /. float_of_int n

(* One engine event: a callback that schedules the next one. *)
let event_ns () =
  let n = 200_000 in
  let eng = Sim.Engine.create () in
  let left = ref n in
  let rec hop () =
    decr left;
    if !left > 0 then Sim.Engine.after eng (Sim.Time.ns 1) hop
  in
  Sim.Engine.after eng (Sim.Time.ns 1) hop;
  let t0 = Probe.clock_ns () in
  Sim.Engine.run eng;
  per_op n t0

(* One PTE store plus one lookup, over 64 Ki pages (128 leaves). *)
let pt_set_get_ns () =
  let n = 1_000_000 in
  let pt = Vmem.Page_table.create () in
  let pte = Vmem.Pte.make_local ~frame:7 ~writable:true in
  for vpn = 0 to 0xFFFF do
    Vmem.Page_table.set pt vpn pte
  done;
  let t0 = Probe.clock_ns () in
  for i = 0 to n - 1 do
    let vpn = (i * 97) land 0xFFFF in
    Vmem.Page_table.set pt vpn pte;
    ignore (Sys.opaque_identity (Vmem.Page_table.get pt vpn))
  done;
  per_op n t0

(* One 4 KiB READ posted and completed, against a target that copies
   nothing, so the memnode copy is not counted twice. *)
let post_read_ns () =
  let batches = 2_000 and per = 32 in
  let eng = Sim.Engine.create () in
  let nop _ _ _ _ = () in
  let qp =
    Rdma.Qp.create ~eng ~nic:(Rdma.Nic.create ())
      ~target:{ Rdma.Qp.t_read = nop; t_write = nop }
      ~region:(Rdma.Region.make ~rkey:1 ~base:0L ~len:(Int64.of_int (per * 4096)))
      ~rkey:1 ~name:"unit" ()
  in
  let buf = Sim.Bigbuf.create (per * 4096) in
  let segs =
    Array.init per (fun i ->
        [ { Rdma.Qp.raddr = Int64.of_int (i * 4096); loff = i * 4096; len = 4096 } ])
  in
  let on_complete () = () in
  let t0 = Probe.clock_ns () in
  for _ = 1 to batches do
    for i = 0 to per - 1 do
      Rdma.Qp.post_read qp ~segs:segs.(i) ~buf ~on_complete
    done;
    Sim.Engine.run eng
  done;
  per_op (batches * per) t0

(* One 4 KiB page copy in and out of a memnode store larger than the
   host's caches. *)
let page_copy_ns () =
  let pages = 16_384 in
  let store = Memnode.Page_store.create ~size:(Int64.of_int (pages * 4096)) in
  let buf = Sim.Bigbuf.create 4096 in
  Sim.Bigbuf.fill buf ~off:0 ~len:4096 'x';
  for p = 0 to pages - 1 do
    Memnode.Page_store.write store ~addr:(Int64.of_int (p * 4096)) ~src:buf ~off:0 ~len:4096
  done;
  let t0 = Probe.clock_ns () in
  for p = 0 to pages - 1 do
    let addr = Int64.of_int (p * 4096) in
    Memnode.Page_store.read store ~addr ~dst:buf ~off:0 ~len:4096;
    Memnode.Page_store.write store ~addr ~src:buf ~off:0 ~len:4096
  done;
  per_op (2 * pages) t0

(* One request drawn from the kv-zipf stream. *)
let gen_ns_per_req () =
  let n = 200_000 in
  let s = Workload.Stream.create (Workloads.kv_stream ~seed:1 ~rate:Workloads.kv_rate) in
  let t0 = Probe.clock_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Workload.Stream.next s))
  done;
  per_op n t0

(* One Memif read that hits a resident page: the access floor, on the
   workload's own system. *)
let memif_hit_ns (spec : Workloads.spec) () =
  let n = 2_000_000 in
  let r =
    Apps.Harness.run spec.Workloads.system ~local_mem:(Workloads.mib 8)
      ~remote_size:(Int64.of_int (Workloads.mib 512)) (fun ctx ->
        let m = ctx.Apps.Harness.mem ~core:0 in
        let a = m.Apps.Memif.malloc 4096 in
        for i = 0 to 1023 do
          m.Apps.Memif.write_u32_at a (i * 4) i
        done;
        let acc = ref 0 in
        let t0 = Probe.clock_ns () in
        for i = 0 to n - 1 do
          acc := !acc + m.Apps.Memif.read_u32_at a ((i land 1023) * 4)
        done;
        let dt = per_op n t0 in
        ignore (Sys.opaque_identity !acc);
        dt)
  in
  r.Apps.Harness.value

let all spec =
  J.Obj
    (List.map
       (fun (name, f) -> (name, J.Float (median f)))
       [
         ("sim.event_ns", event_ns);
         ("vmem.pt_set_get_ns", pt_set_get_ns);
         ("rdma.post_read_ns", post_read_ns);
         ("memnode.page_copy_ns", page_copy_ns);
         ("workload.gen_ns_per_req", gen_ns_per_req);
         ("apps.memif_hit_ns", memif_hit_ns spec);
       ])
