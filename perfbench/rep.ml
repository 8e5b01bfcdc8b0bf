(* One benchmark repetition per process, so each reports its own peak
   memory. run.py drives it; it prints one JSON line.

     rep.exe run WORKLOAD SEED [traced]
     rep.exe units WORKLOAD
     rep.exe sweep SEED *)

open Perfbench

let usage () =
  prerr_endline "usage: rep.exe (run WORKLOAD SEED [traced] | units WORKLOAD | sweep SEED)";
  exit 2

let spec name =
  match Workloads.find name with
  | Some s -> s
  | None ->
      prerr_endline ("unknown workload: " ^ name);
      exit 2

let seed s = match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  let out =
    match Array.to_list Sys.argv |> List.tl with
    | [ "run"; w; s ] -> Workloads.rep (spec w) ~seed:(seed s) ~traced:false
    | [ "run"; w; s; "traced" ] -> Workloads.rep (spec w) ~seed:(seed s) ~traced:true
    | [ "units"; w ] -> Units.all (spec w)
    | [ "sweep"; s ] -> Workloads.sweep ~seed:(seed s)
    | _ -> usage ()
  in
  print_endline (Jsonw.to_string out)
