(* Edge cases for the domain pool (lib/engine/pool.ml): degenerate
   sizes, tasks crashing mid-burst, reentrant submission from inside a
   worker task, and the result-ordering contract of [try_all]. *)

open Engine

let test_size_zero_runs_inline () =
  Helpers.with_pool ~size:0 (fun pool ->
      let results = Helpers.run_all pool (List.init 5 (fun i () -> i * i)) in
      Alcotest.(check (list int)) "results" [ 0; 1; 4; 9; 16 ] results)

let test_size_one_ordering () =
  Helpers.with_pool ~size:1 (fun pool ->
      let results =
        Helpers.run_all pool
          (List.init 32 (fun i () ->
               Domain.cpu_relax ();
               i))
      in
      Alcotest.(check (list int)) "order" (List.init 32 Fun.id) results)

let test_raise_mid_burst () =
  Helpers.with_pool ~size:2 (fun pool ->
      let tasks =
        List.init 8 (fun i ->
            (Printf.sprintf "t%d" i, fun () -> if i = 3 then failwith "boom" else i))
      in
      let outcomes = Pool.try_all pool tasks in
      Alcotest.(check int) "all outcomes delivered" 8 (List.length outcomes);
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok v ->
              Alcotest.(check bool) "crashed task not Ok" true (i <> 3);
              Alcotest.(check int) "value" i v
          | Error (label, Failure msg) ->
              Alcotest.(check string) "label" "t3" label;
              Alcotest.(check string) "message" "boom" msg
          | Error (label, exn) ->
              Alcotest.failf "unexpected %s from %s" (Printexc.to_string exn)
                label)
        outcomes;
      (* the crash must not poison the pool for the next burst *)
      let again = Helpers.run_all pool (List.init 4 (fun i () -> i + 10)) in
      Alcotest.(check (list int)) "pool survives" [ 10; 11; 12; 13 ] again)

let test_run_all_reraises () =
  Helpers.with_pool ~size:2 (fun pool ->
      match Helpers.run_all pool [ (fun () -> 1); (fun () -> failwith "kaput") ] with
      | _ -> Alcotest.fail "expected run_all to re-raise"
      | exception Failure msg -> Alcotest.(check string) "message" "kaput" msg)

(* A task may itself submit a burst to the same pool.  The submitter
   helps drain the queue, so this must complete even on a size-1 pool
   whose only worker is the one doing the nested submit. *)
let test_submit_from_worker_reentrant () =
  Helpers.with_pool ~size:1 (fun pool ->
      let results =
        Helpers.run_all pool
          [
            (fun () ->
              List.fold_left ( + ) 0
                (Helpers.run_all pool (List.init 4 (fun i () -> i + 1))));
            (fun () -> 100);
          ]
      in
      Alcotest.(check (list int)) "nested burst" [ 10; 100 ] results)

let test_try_all_ordering_under_skew () =
  Helpers.with_pool ~size:3 (fun pool ->
      (* early tasks sleep longest, so completion order is roughly the
         reverse of submission order — results must still line up *)
      let n = 12 in
      let tasks =
        List.init n (fun i ->
            ( Printf.sprintf "t%d" i,
              fun () ->
                Unix.sleepf (0.002 *. float_of_int (n - i));
                i ))
      in
      let outcomes = Pool.try_all pool tasks in
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> Alcotest.(check int) "position" i v
          | Error (label, exn) ->
              Alcotest.failf "task %s raised %s" label (Printexc.to_string exn))
        outcomes)

let suite =
  [
    ("size 0: tasks run on the submitter", `Quick, test_size_zero_runs_inline);
    ("size 1: results in submission order", `Quick, test_size_one_ordering);
    ("try_all: crash mid-burst is isolated", `Quick, test_raise_mid_burst);
    ("run_all: re-raises after the burst", `Quick, test_run_all_reraises);
    ("reentrancy: submit from a worker task", `Quick, test_submit_from_worker_reentrant);
    ("try_all: ordering under skewed latencies", `Quick, test_try_all_ordering_under_skew);
  ]
