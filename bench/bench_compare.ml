(* Bench-regression gate: check a fresh BENCH_alloc.json against the
   committed baseline with every gate the sections declare (see
   section.ml), print one markdown table, and exit 1 on any failure.

     bench_compare.exe BASELINE CURRENT *)

module Section = Activermt_bench.Section

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ baseline; candidate ] ->
    exit (Section.compare_files Activermt_bench.Sections.all ~baseline ~candidate)
  | _ ->
    prerr_endline "usage: bench_compare.exe BASELINE CURRENT";
    exit 2
