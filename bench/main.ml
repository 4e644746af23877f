(* Benchmark entry point.

     dune exec bench/main.exe            -- experiments X1-X13 + micro suite
     dune exec bench/main.exe -- x3      -- one experiment (X9 retired)
     dune exec bench/main.exe -- micro   -- only the Bechamel micro suite
     dune exec bench/main.exe -- guard   -- the wall-clock guard (guard.ml)

   The experiment tables are the reproduction of the paper's (prose)
   evaluation; see EXPERIMENTS.md for the paper-vs-measured discussion. *)

open Fixtures
open Bechamel
open Toolkit

(* One Bechamel test per experiment: a small, fixed-size kernel of the
   code path the experiment studies. *)
let micro_tests () =
  let join_program = Core.compile_exn Workload.join_program in
  let join_data = Workload.join_registry ~rows:2_000 () in
  let overview_program = Core.compile_exn Workload.overview_program in
  let overview_data = Workload.overview_registry ~regions:2 ~years:2 () in
  let chain_source = Workload.chain_program ~length:8 in
  let stl_program = Core.compile_exn Workload.stl_program in
  let stl_data = Workload.series_registry ~quarters:120 ~regions:4 () in
  let run backend program data () =
    match Core.run ~backend program data with
    | Ok _ -> ()
    | Error msg -> failwith msg
  in
  Test.make_grouped ~name:"exlengine" ~fmt:"%s %s"
    [
      Test.make ~name:"x1 figure1 join on etl"
        (Staged.stage (run Core.Etl_engine join_program join_data));
      Test.make ~name:"x1 figure1 join on sql"
        (Staged.stage (run Core.Sql join_program join_data));
      Test.make ~name:"x2 overview end-to-end (reference)"
        (Staged.stage (run Core.Reference overview_program overview_data));
      Test.make ~name:"x3 translation exl->mapping->sql"
        (Staged.stage (fun () ->
             match Core.sql_of (Core.compile_exn chain_source) with
             | Ok _ -> ()
             | Error msg -> failwith msg));
      Test.make ~name:"x4 chase on overview"
        (Staged.stage (run Core.Chase overview_program overview_data));
      Test.make ~name:"x5 determination affected-set"
        (Staged.stage
           (let d = Engine.Determination.create () in
            (match
               Engine.Determination.register_source d ~name:"p"
                 Workload.overview_program
             with
            | Ok () -> ()
            | Error msg -> failwith msg);
            fun () ->
              ignore (Engine.Determination.affected d ~changed:[ "RGDPPC" ])));
      Test.make ~name:"x6 stl blackbox on vector"
        (Staged.stage (run Core.Vector_engine stl_program stl_data));
    ]

(* (name, ns/run OLS estimate, r^2) rows, sorted by name. *)
let micro_results () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name result acc ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square result) in
      (name, estimate, r2) :: acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let run_micro () =
  print_endline "\n### Bechamel micro suite (ns/run, OLS estimate)\n";
  Printf.printf "%-45s %15s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, estimate, r2) ->
      let human =
        if estimate > 1e9 then Printf.sprintf "%8.2f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%8.2f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%8.2f us" (estimate /. 1e3)
        else Printf.sprintf "%8.0f ns" estimate
      in
      Printf.printf "%-45s %15s %8.4f\n" name human r2)
    (micro_results ())

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "x1" :: _ -> Experiments.x1 ()
  | _ :: "x2" :: _ -> Experiments.x2 ()
  | _ :: "x3" :: _ -> Experiments.x3 ()
  | _ :: "x4" :: _ -> Experiments.x4 ()
  | _ :: "x5" :: _ -> Experiments.x5 ()
  | _ :: "x6" :: _ -> Experiments.x6 ()
  | _ :: "x7" :: _ -> Experiments.x7 ()
  | _ :: "x8" :: _ -> Experiments.x8 ()
  | _ :: "x10" :: _ -> Experiments.x10 ()
  | _ :: "x11" :: _ -> Experiments.x11 ()
  | _ :: "x12" :: _ -> Experiments.x12 ()
  | _ :: "x13" :: _ -> Experiments.x13 ()
  | _ :: "micro" :: _ -> run_micro ()
  | _ :: "guard" :: _ -> Guard.run ()
  | _ ->
      print_endline "EXLEngine benchmark harness (see EXPERIMENTS.md)";
      Experiments.all ();
      run_micro ()
