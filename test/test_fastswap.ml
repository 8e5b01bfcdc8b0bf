open Util
module Cpu = Dilos.Cpu

let cpu = Fastswap.Kernel.cpu

let page = Vmem.Addr.page_size

let roundtrip_through_swap () =
  with_fastswap ~local_mem:(256 * 1024) (fun _eng k ->
      let n = 256 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Cpu.write_u64 (cpu k) ~core:0
          (Int64.add a (Int64.of_int (i * page)))
          (Int64.of_int (i * 3))
      done;
      for i = 0 to n - 1 do
        check_i64 "value survives swap" (Int64.of_int (i * 3))
          (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_bool "evicted" true
        (Sim.Stats.get (Fastswap.Kernel.stats k) "evictions" > 0))

let readahead_generates_minor_faults () =
  with_fastswap ~local_mem:(256 * 1024) (fun _eng k ->
      let n = 512 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Cpu.write_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore
          (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      let st = Fastswap.Kernel.stats k in
      let major = Sim.Stats.get st "major_faults" in
      let minor = Sim.Stats.get st "minor_faults" in
      (* Table 1: cluster readahead makes ~87.5% of swap faults minor. *)
      check_bool
        (Printf.sprintf "minor (%d) >> major (%d)" minor major)
        true
        (minor > 5 * major);
      check_bool "majors exist" true (major > 0))

let no_readahead_all_major () =
  with_fastswap ~local_mem:(256 * 1024) ~readahead:false (fun _eng k ->
      let n = 256 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Cpu.write_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore
          (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_int "no minors without readahead" 0
        (Sim.Stats.get (Fastswap.Kernel.stats k) "minor_faults"))

let major_fault_slower_than_dilos () =
  let fault_mean sys =
    match sys with
    | `Fastswap ->
        with_fastswap ~local_mem:(128 * 1024) ~readahead:false (fun _eng k ->
            let n = 128 in
            let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
            for i = 0 to n - 1 do
              Cpu.write_u64 (cpu k) ~core:0
                (Int64.add a (Int64.of_int (i * page)))
                1L
            done;
            for i = 0 to n - 1 do
              ignore
                (Cpu.read_u64 (cpu k) ~core:0
                   (Int64.add a (Int64.of_int (i * page))))
            done;
            Sim.Histogram.mean
              (Sim.Stats.histogram (Fastswap.Kernel.stats k) "fault_ns"))
    | `Dilos ->
        with_dilos ~local_mem:(128 * 1024) ~prefetch:Dilos.Kernel.No_prefetch
          (fun _eng k ->
            let n = 128 in
            let a = Dilos.Kernel.mmap k ~len:(n * page) ~ddc:true () in
            for i = 0 to n - 1 do
              Cpu.write_u64 (Dilos.Kernel.cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
            done;
            for i = 0 to n - 1 do
              ignore
                (Cpu.read_u64 (Dilos.Kernel.cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))))
            done;
            Sim.Histogram.mean (Sim.Stats.histogram (Dilos.Kernel.stats k) "fault_ns"))
  in
  let fs = fault_mean `Fastswap and dl = fault_mean `Dilos in
  (* Fig. 6: DiLOS cuts fault latency roughly in half. *)
  check_bool
    (Printf.sprintf "dilos %.0fns well below fastswap %.0fns" dl fs)
    true
    (dl < 0.75 *. fs)

let swap_cache_drains () =
  with_fastswap ~local_mem:(512 * 1024) (fun eng k ->
      let n = 64 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Cpu.write_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      (* Sequential read consumes readahead entries, so the cache stays
         small. *)
      for i = 0 to n - 1 do
        ignore
          (Cpu.read_u64 (cpu k) ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_bool "cache bounded" true (Fastswap.Kernel.swap_cache_size k < 16))

let heap_reuse () =
  with_fastswap (fun _eng k ->
      let a = Fastswap.Kernel.malloc k ~core:0 1000 in
      Cpu.write_u64 (cpu k) ~core:0 a 1L;
      Fastswap.Kernel.free k ~core:0 a;
      let b = Fastswap.Kernel.malloc k ~core:0 1000 in
      check_i64 "mapping reused" a b)

let segfault () =
  with_fastswap (fun _eng k ->
      try
        ignore (Cpu.read_u64 (cpu k) ~core:0 0xBAD000L);
        Alcotest.fail "expected segfault"
      with Cpu.Segmentation_fault _ -> ())

let suite =
  [
    quick "roundtrip through swap" roundtrip_through_swap;
    quick "readahead generates minor faults" readahead_generates_minor_faults;
    quick "no readahead -> all major" no_readahead_all_major;
    quick "major fault slower than dilos" major_fault_slower_than_dilos;
    quick "swap cache drains" swap_cache_drains;
    quick "heap reuse" heap_reuse;
    quick "segfault" segfault;
  ]
