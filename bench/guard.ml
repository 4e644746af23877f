(* The wall-clock guard (`bench/main.exe -- guard`).

   Deterministic counters (matches examined, facts rederived, tuples
   and non-core facts of the optimized chase) are exact checks in the
   test suite (test/test_counters.ml).  What is left here are the
   properties only a clock shows.  Each table is measured once and
   printed; the run exits 1 if any clause below fails.  Every clause
   is a ratio of two medians measured back to back in this process,
   or an absolute floor far below any working machine, so a uniformly
   slow or throttled runner cannot fail it.  It takes no argument and
   reads no file. *)

(* 75% of the naive/semi-naive speedups in the committed chase
   baseline this guard replaced (5.25x, 6.56x, 1.96x and 6.71x). *)
let chase_floors =
  [
    ("overview 2rx2y (x4 micro)", 3.93);
    ("overview 8rx5y (10x scale)", 4.92);
    ("join 16k rows", 1.47);
    ("chain length 16", 5.03);
  ]

let incr_floor = 3.0
let col_floor = 2.0

(* Closed-loop requests per second: a loopback in-process daemon that
   cannot answer this many is broken, not slow. *)
let serve_floor = 200.

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun line ->
      if not ok then incr failures;
      Printf.printf "  %s %s\n%!" (if ok then "ok  " else "FAIL") line)
    fmt

(* One table: measure, print, check.  A table that raises (a failed
   chase) fails the guard instead of aborting it. *)
let table title measure print check =
  Printf.printf "\n### %s\n\n%!" title;
  match measure () with
  | rows ->
      print rows;
      print_newline ();
      List.iter check rows
  | exception Failure msg -> expect false "%s" msg

let chase (r : Experiments.chase_row) =
  let floor = List.assoc r.Experiments.workload chase_floors in
  let speedup =
    r.Experiments.naive.Experiments.seconds
    /. r.Experiments.semi_naive.Experiments.seconds
  in
  expect (speedup >= floor) "%-28s naive/semi-naive %.2fx (floor %.2fx)"
    r.Experiments.workload speedup floor

let incr (r : Experiments.incr_row) =
  expect
    (r.Experiments.incr_speedup >= incr_floor)
    "%-36s incremental/recompute_all %.2fx (floor %.1fx)" r.Experiments.label
    r.Experiments.incr_speedup incr_floor

let col (r : Experiments.col_row) =
  expect
    (r.Experiments.col_speedup >= col_floor)
    "%-32s columnar/row %.2fx (floor %.1fx)" r.Experiments.col_label
    r.Experiments.col_speedup col_floor

let serve (r : Serve_load.row) =
  expect (r.Serve_load.errors = 0) "%-30s %d request error(s)"
    r.Serve_load.label r.Serve_load.errors;
  expect
    (r.Serve_load.throughput >= serve_floor)
    "%-30s %.0f req/s (floor %.0f)" r.Serve_load.label r.Serve_load.throughput
    serve_floor;
  expect
    (r.Serve_load.updates = 0
    || (r.Serve_load.commits > 0 && r.Serve_load.commits <= r.Serve_load.updates))
    "%-30s %d commit(s) for %d update batch(es)" r.Serve_load.label
    r.Serve_load.commits r.Serve_load.updates

let run () =
  table "naive vs semi-naive chase (X4)" Experiments.chase_rows
    Experiments.print_chase_rows chase;
  table "incremental apply_updates vs recompute_all (X11)"
    Experiments.incr_rows Experiments.print_incr_rows incr;
  table "columnar vs row chase (X13)" Experiments.col_rows
    Experiments.print_col_rows col;
  table "exlserve closed-loop load" Serve_load.rows Serve_load.print_rows serve;
  if !failures > 0 then begin
    Printf.printf "\n%d guard clause(s) failed.\n" !failures;
    exit 1
  end
  else print_endline "\nall guard clauses hold."
