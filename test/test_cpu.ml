(* The CPU front end on its own: a stub fault handler over a small
   frame pool, no memory node and no kernel. *)

open Util

(* Regression for the charge-flush lost-store race. A store that hits
   the TLB charges its access; when that charge reaches the pending-time
   cap the core flushes, which sleeps the fiber. Reclaim can run in
   that window, evict the page and shoot down the TLB slot. The store
   must re-validate the slot after charging and land in the re-faulted
   frame — writing through the cached offset would put it in the
   evicted frame, and the value would be lost. *)
let store_survives_eviction_during_charge_flush () =
  run_sim (fun eng ->
      let pt = Vmem.Page_table.create () in
      let frames = Vmem.Frame.create ~frames:4 in
      let cpu = Dilos.Cpu.create ~eng ~pt ~frames ~cores:1 in
      let faults = ref 0 in
      Dilos.Cpu.set_handlers cpu
        ~fault:(fun _core vpn ->
          incr faults;
          let frame = Vmem.Frame.alloc_exn frames in
          Vmem.Frame.fill_page frames frame '\000';
          Vmem.Page_table.set pt vpn (Vmem.Pte.make_local ~frame ~writable:true))
        ~store:(fun _ _ _ -> ());
      let addr = 0x4000_0000L in
      let vpn = Vmem.Addr.vpn addr in
      let slab = Vmem.Frame.slab frames in
      let frame_of_page () = Vmem.Pte.frame (Vmem.Page_table.get pt vpn) in
      (* Load the translation, then leave the core one access short of
         the pending-time cap (the slow path itself charged 20 ns). *)
      Dilos.Cpu.touch cpu ~core:0 addr;
      let stale = frame_of_page () in
      Dilos.Cpu.compute cpu ~core:0 (10_000 - 20 - Dilos.Params.mem_access_ns);
      (* Reclaim, running while the store's charge flush sleeps: unmap
         the page and shoot the slot down. The evicted frame stays
         allocated, so a re-fault cannot get it back. *)
      let evicted = ref false in
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.sleep eng (Sim.Time.ns 1);
          Vmem.Page_table.set pt vpn (Vmem.Pte.make_remote ());
          Dilos.Cpu.invalidate cpu vpn;
          evicted := true);
      let t0 = Sim.Engine.now eng in
      Dilos.Cpu.write_u64 cpu ~core:0 addr 0xC0FFEEL;
      check_bool "the store's charge flush slept" true
        (Int64.compare (Sim.Engine.now eng) t0 > 0);
      check_bool "reclaim ran inside that sleep" true !evicted;
      check_int "the store re-faulted the page" 2 !faults;
      let fresh = frame_of_page () in
      check_bool "re-faulted into a different frame" true (fresh <> stale);
      check_i64 "store landed in the re-faulted frame" 0xC0FFEEL
        (Sim.Bigbuf.get_u64_le slab (Vmem.Frame.offset frames fresh));
      check_i64 "evicted frame untouched" 0L
        (Sim.Bigbuf.get_u64_le slab (Vmem.Frame.offset frames stale));
      check_i64 "load sees the store" 0xC0FFEEL
        (Dilos.Cpu.read_u64 cpu ~core:0 addr))

let suite =
  [
    quick "store survives eviction during charge flush"
      store_survives_eviction_during_charge_flush;
  ]
