open Util

(* Build a bare page manager over a scratch fabric for unit-level
   checks (kernel-level behaviour is covered in test_dilos). *)
let with_pm ?(frames = 16) ?reclaim_guide f =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) () in
      let stats = Sim.Stats.create () in
      let fabric = Memnode.Server.connect server ~stats () in
      let pt = Vmem.Page_table.create () in
      let fr = Vmem.Frame.create ~frames in
      let pm =
        Dilos.Page_manager.create ~eng ~stats ~pt ~frames:fr
          ~evict_qp:(Rdma.Fabric.qp fabric ~name:"evict") ?reclaim_guide ()
      in
      Dilos.Page_manager.start pm;
      let r = f eng stats pt fr pm in
      Dilos.Page_manager.stop pm;
      r)

let map_page pt fr pm vpn ~dirty =
  let frame = Vmem.Frame.alloc_exn fr in
  let pte = Vmem.Pte.make_local ~frame ~writable:true in
  let pte = if dirty then Vmem.Pte.set_dirty pte else pte in
  Vmem.Page_table.set pt vpn pte;
  Dilos.Page_manager.note_mapped pm vpn;
  frame

let alloc_blocks_until_reclaim () =
  with_pm ~frames:8 (fun _eng stats pt fr pm ->
      (* Occupy every frame with clean cold pages. *)
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      check_int "pool empty" 0 (Dilos.Page_manager.free_frames pm);
      (* alloc_frame must trigger eviction and return. *)
      let f = Dilos.Page_manager.alloc_frame pm in
      check_bool "got a frame" true (f >= 0);
      check_bool "stall recorded" true (Sim.Stats.get stats "reclaim_stalls" >= 1);
      check_bool "something evicted" true (Sim.Stats.get stats "evictions" >= 1))

let clean_pages_dropped_without_rdma () =
  with_pm ~frames:8 (fun _eng stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      check_int "no writebacks for clean pages" 0 (Sim.Stats.get stats "writebacks");
      (* The evicted page's PTE flipped to Remote. *)
      let remote = ref 0 in
      for vpn = 1 to 8 do
        if Vmem.Pte.tag (Vmem.Page_table.get pt vpn) = Vmem.Pte.Remote then incr remote
      done;
      check_bool "at least one remote" true (!remote >= 1))

let dirty_pages_written_back_on_eviction () =
  with_pm ~frames:8 (fun eng stats pt fr pm ->
      let frame0 = map_page pt fr pm 1 ~dirty:true in
      Sim.Bigbuf.set_u64_le (Vmem.Frame.data fr frame0) 0 0x5151L;
      for vpn = 2 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:true)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      Dilos.Page_manager.quiesce pm;
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      check_bool "writebacks happened" true (Sim.Stats.get stats "writebacks" >= 1))

let second_chance_respects_accessed_bit () =
  with_pm ~frames:8 (fun _eng _stats pt fr pm ->
      (* Page 1 is hot (accessed); 2..8 cold. *)
      let _ = map_page pt fr pm 1 ~dirty:false in
      Vmem.Page_table.update pt 1 Vmem.Pte.set_accessed;
      for vpn = 2 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      (* The hot page survived the first eviction wave. *)
      Alcotest.(check bool) "hot page still local" true
        (Vmem.Pte.tag (Vmem.Page_table.get pt 1) = Vmem.Pte.Local))

let cleaner_cleans_in_background () =
  with_pm ~frames:32 (fun eng stats pt fr pm ->
      for vpn = 1 to 4 do
        ignore (map_page pt fr pm vpn ~dirty:true)
      done;
      (* No memory pressure: only the periodic cleaner acts. *)
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "cleaner wrote dirty pages" true
        (Sim.Stats.get stats "writebacks" >= 4);
      for vpn = 1 to 4 do
        let p = Vmem.Page_table.get pt vpn in
        Alcotest.(check bool) "still mapped" true (Vmem.Pte.tag p = Vmem.Pte.Local);
        Alcotest.(check bool) "now clean" false (Vmem.Pte.dirty p)
      done)

(* The cleaner resumes at a clean-prefix cursor. A page re-dirtied
   behind the cursor must pull it back, or the next pass would start
   past the page and never write it back. (32 frames keep the pool
   above the reclaimer's low watermark, so nothing is evicted.) *)
let redirtied_behind_cursor ~redirty () =
  with_pm ~frames:32 (fun eng stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:true)
      done;
      let period = Dilos.Params.cleaner_period in
      Sim.Engine.sleep eng (Sim.Time.add period (Sim.Time.us 20));
      check_int "first pass wrote all 8" 8 (Sim.Stats.get stats "writebacks");
      redirty pt fr pm;
      Sim.Engine.sleep eng period;
      let p = Vmem.Page_table.get pt 1 in
      check_bool "page 1 local" true (Vmem.Pte.tag p = Vmem.Pte.Local);
      check_bool "page 1 cleaned again" false (Vmem.Pte.dirty p);
      check_int "one more writeback" 9 (Sim.Stats.get stats "writebacks"))

(* A store through the kernel's hook. *)
let redirty_by_store pt _fr pm =
  Vmem.Page_table.update pt 1 Vmem.Pte.set_dirty;
  Dilos.Page_manager.note_dirtied pm 1

(* Page 1 goes away behind the manager's back (as munmap does), which
   leaves its clock entry stale, then comes back dirty: the push is a
   no-op, so only [note_mapped]'s rewind can reach the old slot. *)
let redirty_by_remap pt fr pm =
  Vmem.Frame.free fr (Vmem.Pte.frame (Vmem.Page_table.get pt 1));
  Vmem.Page_table.set pt 1 Vmem.Pte.zero;
  ignore (map_page pt fr pm 1 ~dirty:true)

(* The cleaner's host work is proportional to the pages it writes,
   not to local memory times pages written: a sequential dirty fill
   far larger than the pool must not re-probe the clean resident set
   on every pass. *)
let cleaner_work_bounded () =
  let frames = 1024 in
  let pages = 16 * frames in
  with_pm ~frames (fun eng _stats pt _fr pm ->
      for vpn = 1 to pages do
        let frame = Dilos.Page_manager.alloc_frame pm in
        let pte = Vmem.Pte.set_dirty (Vmem.Pte.make_local ~frame ~writable:true) in
        Vmem.Page_table.set pt vpn pte;
        Dilos.Page_manager.note_mapped pm vpn;
        Sim.Engine.sleep eng (Sim.Time.us 2)
      done;
      let probes = Dilos.Page_manager.cleaner_probes pm in
      check_bool
        (Printf.sprintf "%d probes <= 2 x %d pages" probes pages)
        true
        (probes > 0 && probes <= 2 * pages))

let vector_log_roundtrip () =
  let guide =
    {
      Dilos.Guide.rg_name = "test";
      rg_live_segments = (fun _ -> Some [ (0, 64); (1024, 128) ]);
    }
  in
  with_pm ~frames:8 ~reclaim_guide:guide (fun _eng _stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      (* Evicted pages carry Action PTEs with the guide's vector. *)
      let found = ref false in
      for vpn = 1 to 8 do
        let p = Vmem.Page_table.get pt vpn in
        if Vmem.Pte.tag p = Vmem.Pte.Action && not !found then begin
          found := true;
          let segs =
            Dilos.Page_manager.vector_segments pm ~payload:(Vmem.Pte.payload p)
          in
          Alcotest.(check (list (pair int int)))
            "vector preserved" [ (0, 64); (1024, 128) ] segs
        end
      done;
      check_bool "an action pte exists" true !found)

let vector_log_consumed_once () =
  let guide =
    {
      Dilos.Guide.rg_name = "test";
      rg_live_segments = (fun _ -> Some [ (0, 64) ]);
    }
  in
  with_pm ~frames:8 ~reclaim_guide:guide (fun _eng _stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      let payload = ref None in
      for vpn = 1 to 8 do
        let p = Vmem.Page_table.get pt vpn in
        if Vmem.Pte.tag p = Vmem.Pte.Action && !payload = None then
          payload := Some (Vmem.Pte.payload p)
      done;
      match !payload with
      | None -> Alcotest.fail "no action pte"
      | Some pl ->
          ignore (Dilos.Page_manager.vector_segments pm ~payload:pl);
          Alcotest.check_raises "second decode fails"
            (Invalid_argument "Page_manager.vector_segments: unknown payload")
            (fun () -> ignore (Dilos.Page_manager.vector_segments pm ~payload:pl)))

let suite =
  [
    quick "alloc blocks until reclaim" alloc_blocks_until_reclaim;
    quick "clean pages dropped without rdma" clean_pages_dropped_without_rdma;
    quick "dirty pages written back on eviction" dirty_pages_written_back_on_eviction;
    quick "second chance respects accessed bit" second_chance_respects_accessed_bit;
    quick "cleaner cleans in background" cleaner_cleans_in_background;
    quick "cleaner rewinds for a store behind its cursor"
      (redirtied_behind_cursor ~redirty:redirty_by_store);
    quick "cleaner rewinds for a dirty remap of a stale entry"
      (redirtied_behind_cursor ~redirty:redirty_by_remap);
    quick "cleaner work bounded by pages written" cleaner_work_bounded;
    quick "vector log roundtrip" vector_log_roundtrip;
    quick "vector log consumed once" vector_log_consumed_once;
  ]
