(* Quickstart: boot a DiLOS computing node against a memory node,
   allocate disaggregated memory, and watch pages migrate.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulation engine is the world clock. *)
  let eng = Sim.Engine.create () in

  (* 2. A memory node exporting 1 GiB over (simulated) RDMA. *)
  let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) () in

  (* 3. Boot DiLOS with 1 MiB of local DRAM and readahead prefetch. *)
  let k =
    Dilos.Kernel.boot ~eng ~server
      {
        Dilos.Kernel.local_mem_bytes = 1024 * 1024;
        cores = 1;
        prefetch = Dilos.Kernel.Readahead;
        guided_paging = false;
        tcp_emulation = false;
      }
  in

  (* 4. Applications run as fibers; every memory access goes through
     the unified page table. *)
  Sim.Engine.spawn eng (fun () ->
      (* A working set 4x the local cache: pages will be evicted to
         the memory node and fetched back on demand. *)
      let n_pages = 1024 in
      let region = Dilos.Kernel.mmap k ~len:(n_pages * 4096) ~ddc:true () in
      Printf.printf "mapped %d DDC pages at 0x%Lx\n" n_pages region;

      for i = 0 to n_pages - 1 do
        Dilos.Cpu.write_u64 (Dilos.Kernel.cpu k) ~core:0
          (Int64.add region (Int64.of_int (i * 4096)))
          (Int64.of_int (i * i))
      done;
      Dilos.Cpu.flush (Dilos.Kernel.cpu k) ~core:0;
      Printf.printf "populated; free local frames: %d\n"
        (Dilos.Kernel.free_frames k);

      (* Read everything back: most pages now live on the memory node. *)
      let errors = ref 0 in
      let t0 = Dilos.Kernel.now k in
      for i = 0 to n_pages - 1 do
        let v =
          Dilos.Cpu.read_u64 (Dilos.Kernel.cpu k) ~core:0
            (Int64.add region (Int64.of_int (i * 4096)))
        in
        if not (Int64.equal v (Int64.of_int (i * i))) then incr errors
      done;
      Dilos.Cpu.flush (Dilos.Kernel.cpu k) ~core:0;
      let dt = Sim.Time.sub (Dilos.Kernel.now k) t0 in

      let st = Dilos.Kernel.stats k in
      Printf.printf "read back %d pages in %s simulated (%d errors)\n" n_pages
        (Format.asprintf "%a" Sim.Time.pp dt)
        !errors;
      Printf.printf "major faults:     %d\n" (Sim.Stats.get st "major_faults");
      Printf.printf "prefetches:       %d\n" (Sim.Stats.get st "prefetch_issued");
      Printf.printf "fetch waits:      %d\n" (Sim.Stats.get st "fetch_waits");
      Printf.printf "evictions:        %d\n" (Sim.Stats.get st "evictions");
      Printf.printf "write-backs:      %d\n" (Sim.Stats.get st "writebacks");
      Dilos.Kernel.shutdown k);

  Sim.Engine.run eng;
  print_endline "done."
