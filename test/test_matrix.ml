(* The Matrix data model substrate: calendar, values, domains, tuples,
   cubes, series, registries, CSV. *)
open Matrix
open Helpers

(* --- calendar: dates --- *)

let date_testable = Helpers.date

let test_date_rata_die_roundtrip () =
  List.iter
    (fun (y, m, d) ->
      let date = Calendar.Date.make ~year:y ~month:m ~day:d in
      Alcotest.check date_testable "roundtrip" date
        (Calendar.Date.of_rata_die (Calendar.Date.to_rata_die date)))
    [
      (2000, 3, 1); (1999, 12, 31); (2024, 2, 29); (1582, 10, 15);
      (1, 1, 1); (2100, 2, 28); (2400, 2, 29);
    ]

let test_date_known_epoch () =
  (* Hinnant's algorithm: 1970-01-01 is 719468 days after 0000-03-01. *)
  Alcotest.(check int) "epoch" 719468
    (Calendar.Date.to_rata_die (Calendar.Date.make ~year:1970 ~month:1 ~day:1))

let test_date_day_of_week () =
  (* 2026-07-05 is a Sunday (ISO: 6 with Monday = 0). *)
  Alcotest.(check int) "sunday" 6
    (Calendar.Date.day_of_week (Calendar.Date.make ~year:2026 ~month:7 ~day:5));
  Alcotest.(check int) "thursday" 3
    (Calendar.Date.day_of_week (Calendar.Date.make ~year:1970 ~month:1 ~day:1))

let test_date_leap_years () =
  Alcotest.(check bool) "2024" true (Calendar.Date.is_leap_year 2024);
  Alcotest.(check bool) "1900" false (Calendar.Date.is_leap_year 1900);
  Alcotest.(check bool) "2000" true (Calendar.Date.is_leap_year 2000);
  Alcotest.(check int) "feb 2024" 29 (Calendar.Date.days_in_month ~year:2024 ~month:2);
  Alcotest.(check (option date_testable)) "invalid date" None
    (Calendar.Date.make_opt ~year:2023 ~month:2 ~day:29)

let test_date_add_days () =
  let d = Calendar.Date.make ~year:2023 ~month:12 ~day:31 in
  Alcotest.check date_testable "new year"
    (Calendar.Date.make ~year:2024 ~month:1 ~day:1)
    (Calendar.Date.add_days d 1);
  Alcotest.check date_testable "leap straddle"
    (Calendar.Date.make ~year:2024 ~month:3 ~day:1)
    (Calendar.Date.add_days (Calendar.Date.make ~year:2024 ~month:2 ~day:28) 2)

let test_date_string_roundtrip () =
  let d = Calendar.Date.make ~year:2023 ~month:7 ~day:5 in
  Alcotest.(check string) "iso" "2023-07-05" (Calendar.Date.to_string d);
  Alcotest.(check (option date_testable)) "parse" (Some d)
    (Calendar.Date.of_string "2023-07-05");
  Alcotest.(check (option date_testable)) "reject" None
    (Calendar.Date.of_string "2023-13-05")

(* --- calendar: periods --- *)

let test_period_of_date () =
  let d = Calendar.Date.make ~year:2023 ~month:8 ~day:17 in
  let check_conv freq expected =
    Alcotest.(check string) expected expected
      (Calendar.Period.to_string (Calendar.Period.of_date freq d))
  in
  check_conv Calendar.Year "2023";
  check_conv Calendar.Semester "2023S2";
  check_conv Calendar.Quarter "2023Q3";
  check_conv Calendar.Month "2023M08";
  check_conv Calendar.Day "2023-08-17"

let test_period_shift_across_years () =
  let q4 = Calendar.Period.quarter 2023 4 in
  Alcotest.check period "wraps" (Calendar.Period.quarter 2024 1)
    (Calendar.Period.shift q4 1);
  Alcotest.check period "back two years" (Calendar.Period.quarter 2021 4)
    (Calendar.Period.shift q4 (-8));
  let m1 = Calendar.Period.month 2020 1 in
  Alcotest.check period "months" (Calendar.Period.month 2019 12)
    (Calendar.Period.shift m1 (-1))

let test_period_start_end () =
  let q2 = Calendar.Period.quarter 2023 2 in
  Alcotest.check date_testable "start"
    (Calendar.Date.make ~year:2023 ~month:4 ~day:1)
    (Calendar.Period.start_date q2);
  Alcotest.check date_testable "end"
    (Calendar.Date.make ~year:2023 ~month:6 ~day:30)
    (Calendar.Period.end_date q2)

let test_period_iso_weeks () =
  (* ISO: week 1 of 2021 starts on Monday 2021-01-04. *)
  let w1 = Calendar.Period.week 2021 1 in
  Alcotest.check date_testable "start of 2021W01"
    (Calendar.Date.make ~year:2021 ~month:1 ~day:4)
    (Calendar.Period.start_date w1);
  Alcotest.(check string) "prints" "2021W01" (Calendar.Period.to_string w1);
  (* 2021-01-01 belongs to ISO week 2020W53. *)
  let containing =
    Calendar.Period.of_date Calendar.Week
      (Calendar.Date.make ~year:2021 ~month:1 ~day:1)
  in
  Alcotest.(check string) "iso year boundary" "2020W53"
    (Calendar.Period.to_string containing)

let test_period_string_roundtrip () =
  List.iter
    (fun s ->
      match Calendar.Period.of_string s with
      | Some p -> Alcotest.(check string) s s (Calendar.Period.to_string p)
      | None -> Alcotest.failf "failed to parse %s" s)
    [ "2023"; "2023S1"; "2023Q4"; "2023M11"; "2021W01"; "2023-02-28" ]

let test_period_convert () =
  let m = Calendar.Period.month 2023 8 in
  Alcotest.check period "month to quarter" (Calendar.Period.quarter 2023 3)
    (Calendar.Period.convert Calendar.Quarter m);
  Alcotest.check_raises "finer rejected"
    (Invalid_argument "Calendar.Period.convert: cannot convert to finer frequency")
    (fun () -> ignore (Calendar.Period.convert Calendar.Month (Calendar.Period.year 2023)))

let test_period_range () =
  let a = Calendar.Period.quarter 2023 3 in
  let b = Calendar.Period.quarter 2024 2 in
  Alcotest.(check (list string)) "range"
    [ "2023Q3"; "2023Q4"; "2024Q1"; "2024Q2" ]
    (List.map Calendar.Period.to_string (Calendar.Period.range a b))

let prop_period_shift_inverse =
  QCheck.Test.make ~count:200 ~name:"period shift is invertible"
    QCheck.(pair (int_range (-5000) 5000) (int_range (-500) 500))
    (fun (index, s) ->
      let p = Calendar.Period.make Calendar.Month index in
      Calendar.Period.compare p
        (Calendar.Period.shift (Calendar.Period.shift p s) (-s))
      = 0)

let prop_date_rata_die_bijective =
  QCheck.Test.make ~count:200 ~name:"rata die is bijective"
    QCheck.(int_range (-100_000) 1_000_000)
    (fun rd -> Calendar.Date.to_rata_die (Calendar.Date.of_rata_die rd) = rd)

let prop_period_of_date_contains =
  QCheck.Test.make ~count:200 ~name:"of_date period contains the date"
    QCheck.(pair (int_range 0 800_000) (int_range 0 4))
    (fun (rd, fi) ->
      let freq =
        List.nth Calendar.[ Year; Semester; Quarter; Month; Week ] fi
      in
      let d = Calendar.Date.of_rata_die rd in
      let p = Calendar.Period.of_date freq d in
      Calendar.Date.compare (Calendar.Period.start_date p) d <= 0
      && Calendar.Date.compare d (Calendar.Period.end_date p) <= 0)

(* --- values --- *)

let test_value_numeric_cross_type () =
  Alcotest.(check int) "int = float" 0 (Value.compare (vi 2) (vf 2.));
  Alcotest.(check bool) "equal" true (Value.equal (vi 2) (vf 2.));
  Alcotest.(check bool) "hash agrees" true
    (Value.hash (vi 2) = Value.hash (vf 2.))

let test_value_guess () =
  Alcotest.check value "int" (vi 42) (Value.of_string_guess "42");
  Alcotest.check value "float" (vf 4.5) (Value.of_string_guess "4.5");
  Alcotest.check value "date" (vd 2023 1 2) (Value.of_string_guess "2023-01-02");
  Alcotest.check value "period" (vq 2023 1) (Value.of_string_guess "2023Q1");
  Alcotest.check value "string" (vs "north") (Value.of_string_guess "north");
  Alcotest.check value "null" Value.Null (Value.of_string_guess "");
  Alcotest.check value "bool" (Value.Bool true) (Value.of_string_guess "true")

let test_value_nan_becomes_null () =
  Alcotest.check value "nan" Value.Null (Value.of_float Float.nan)

(* --- domains --- *)

let test_domain_membership () =
  Alcotest.(check bool) "int in float" true (Domain.member (vi 1) Domain.Float);
  Alcotest.(check bool) "null anywhere" true (Domain.member Value.Null Domain.String);
  Alcotest.(check bool) "freq match" true
    (Domain.member (vq 2023 1) (Domain.Period (Some Calendar.Quarter)));
  Alcotest.(check bool) "freq mismatch" false
    (Domain.member (vm 2023 1) (Domain.Period (Some Calendar.Quarter)))

let test_domain_union () =
  Alcotest.(check (option string)) "int/float" (Some "float")
    (Option.map Domain.to_string (Domain.union Domain.Int Domain.Float));
  Alcotest.(check (option string)) "periods" (Some "period")
    (Option.map Domain.to_string
       (Domain.union
          (Domain.Period (Some Calendar.Quarter))
          (Domain.Period (Some Calendar.Month))));
  Alcotest.(check bool) "string/int" true
    (Domain.union Domain.String Domain.Int = None)

(* --- tuples --- *)

let test_tuple_ordering () =
  let a = key [ vi 1; vs "a" ] and b = key [ vi 1; vs "b" ] in
  Alcotest.(check bool) "a < b" true (Tuple.compare a b < 0);
  Alcotest.(check bool) "project" true
    (Tuple.equal (Tuple.project b [| 1 |]) (key [ vs "b" ]))

(* A value [Value.equal] to [v], in another representation where one
   exists: the other numeric constructor, another NaN, a fresh date. *)
let twin = function
  | Value.Int i -> vf (float_of_int i)
  | Value.Float f when Float.is_integer f && Float.abs f < 0x1p62 -> vi (int_of_float f)
  | Value.Float f when Float.is_nan f -> vf (-.f)
  | Value.Date { Calendar.Date.year; month; day } -> vd year month day
  | v -> v

(* A value and, half the time, its twin; else an unrelated value. *)
let gen_value_pair =
  QCheck.Gen.(
    gen_dict_value >>= fun a ->
    map (fun b -> (a, b)) (frequency [ (1, return (twin a)); (1, gen_dict_value) ]))

let show_value v = Value.type_name v ^ " " ^ Value.to_string v
let show_pair (a, b) = show_value a ^ " | " ^ show_value b

(* The contract every value-keyed table rests on (value.mli). *)
let prop_value_hash_consistent =
  QCheck.Test.make
    ~count:(Helpers.qcheck_count ~var:"EXL_STORE_QCHECK_COUNT" ~default:200)
    ~name:"value equal implies equal hash"
    (QCheck.make
       ~print:show_pair gen_value_pair)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_tuple_hash_consistent =
  QCheck.Test.make ~count:200 ~name:"tuple equal implies equal hash"
    (QCheck.make
       ~print:(fun pairs -> String.concat "; " (List.map show_pair pairs))
       QCheck.Gen.(list_size (int_bound 4) gen_value_pair))
    (fun pairs ->
      let t1 = key (List.map fst pairs) and t2 = key (List.map snd pairs) in
      (not (Tuple.equal t1 t2)) || Tuple.hash t1 = Tuple.hash t2)

(* --- cubes --- *)

let test_cube_functionality () =
  let c = cube_of "C" [ ("x", Domain.Int) ] [ [ vi 1; vf 2. ] ] in
  Cube.add_strict c (key [ vi 1 ]) (vf 2.);
  (* same value: fine *)
  Alcotest.check_raises "conflict"
    (Cube.Functionality_violation { cube = "C"; key = key [ vi 1 ] })
    (fun () -> Cube.add_strict c (key [ vi 1 ]) (vf 3.))

let test_cube_null_measure_dropped () =
  let c = cube_of "C" [ ("x", Domain.Int) ] [] in
  Cube.set c (key [ vi 1 ]) Value.Null;
  Alcotest.(check int) "empty" 0 (Cube.cardinality c)

let test_cube_merge_join_intersection () =
  let a = cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 2. ] ] in
  let b = cube_of "B" [ ("x", Domain.Int) ] [ [ vi 2; vf 5. ]; [ vi 3; vf 9. ] ] in
  let out =
    Cube.merge_join
      (fun x y -> Ops.Binop.eval_value Ops.Binop.Add x y)
      (Cube.schema a) a b
  in
  Alcotest.(check int) "one" 1 (Cube.cardinality out);
  Alcotest.check value "2+5" (vf 7.) (Option.get (Cube.find out (key [ vi 2 ])))

let test_cube_merge_join_operand_order () =
  (* merge_join iterates the smaller side but must keep argument order. *)
  let a = cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 10. ] ] in
  let b =
    cube_of "B" [ ("x", Domain.Int) ]
      [ [ vi 1; vf 4. ]; [ vi 2; vf 5. ]; [ vi 3; vf 6. ] ]
  in
  let sub = Cube.merge_join (Ops.Binop.eval_value Ops.Binop.Sub) (Cube.schema a) in
  Alcotest.check value "10-4" (vf 6.) (Option.get (Cube.find (sub a b) (key [ vi 1 ])));
  Alcotest.check value "4-10" (vf (-6.)) (Option.get (Cube.find (sub b a) (key [ vi 1 ])))

let test_cube_diff_data () =
  let a = cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 2. ] ] in
  let b = cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 3. ] ] in
  Alcotest.(check int) "one diff" 1 (List.length (Cube.diff_data a b));
  Alcotest.(check bool) "not equal" false (Cube.equal_data a b);
  Alcotest.(check bool) "tolerant" true (Cube.equal_data ~eps:2. a b)

let test_cube_of_rows_validates () =
  let schema = Schema.make ~name:"C" ~dims:[ ("x", Domain.Int) ] () in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Cube.of_rows: row of width 3 for schema C(x: int): float")
    (fun () -> ignore (Cube.of_rows schema [ [ vi 1; vi 2; vf 3. ] ]))

(* --- registry --- *)

let test_registry_kinds_and_copy () =
  let reg = overview_registry () in
  Alcotest.(check (list string)) "elementary" [ "PDR"; "RGDPPC" ]
    (Registry.elementary_names reg);
  let copy = Registry.copy reg in
  Cube.set (Registry.find_exn copy "PDR") (key [ vd 1999 1 1; vs "x" ]) (vf 1.);
  Alcotest.(check bool) "deep copy" false
    (Cube.cardinality (Registry.find_exn reg "PDR")
    = Cube.cardinality (Registry.find_exn copy "PDR"))

(* --- csv --- *)

let test_csv_roundtrip () =
  let c =
    cube_of "C"
      [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [
        [ vq 2020 1; vs "with,comma"; vf 1.5 ];
        [ vq 2020 2; vs "with \"quote\""; vf 2.5 ];
        [ vq 2020 3; vs "plain"; vf (-3.) ];
      ]
  in
  let text = Csv.cube_to_string c in
  match Csv.cube_of_string (Cube.schema c) text with
  | Ok back -> Alcotest.check cube_eq "roundtrip" c back
  | Error msg -> Alcotest.fail msg

let test_csv_rejects_bad_header () =
  let schema = Schema.make ~name:"C" ~dims:[ ("x", Domain.Int) ] () in
  match Csv.cube_of_string schema "wrong,header\n1,2\n" with
  | Error msg ->
      Alcotest.(check bool) "mentions header" true
        (Astring_contains.contains msg "header")
  | Ok _ -> Alcotest.fail "expected header error"

let test_csv_parse_quoted_newline () =
  let rows = Csv.parse_rows "a,\"b\nc\",d\n" in
  Alcotest.(check int) "one row" 1 (List.length rows);
  Alcotest.(check (list string)) "cells" [ "a"; "b\nc"; "d" ] (List.hd rows)

let prop_csv_roundtrip =
  QCheck.Test.make ~count:100 ~name:"csv roundtrip on random cubes"
    QCheck.(list (pair (int_range 0 30) (int_range (-1000) 1000)))
    (fun rows ->
      let schema = Schema.make ~name:"T" ~dims:[ ("x", Domain.Int) ] () in
      let c = Cube.create schema in
      List.iter
        (fun (x, v) -> Cube.set c (key [ vi x ]) (vf (float_of_int v /. 8.)))
        rows;
      match Csv.cube_of_string schema (Csv.cube_to_string c) with
      | Ok back -> Cube.equal_data c back
      | Error _ -> false)

(* The text of the Printf formats the fast writers replaced, kept here
   as their reference. *)
let printf_date (d : Calendar.Date.t) =
  Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day

let printf_period p =
  let y = Calendar.Period.year_of p and sub = Calendar.Period.sub_of p in
  match Calendar.Period.freq p with
  | Calendar.Year -> Printf.sprintf "%04d" (Calendar.Period.index p)
  | Calendar.Semester -> Printf.sprintf "%04dS%d" y sub
  | Calendar.Quarter -> Printf.sprintf "%04dQ%d" y sub
  | Calendar.Month -> Printf.sprintf "%04dM%02d" y sub
  | Calendar.Week -> Printf.sprintf "%04dW%02d" y sub
  | Calendar.Day -> printf_date (Calendar.Period.start_date p)

let printf_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let frequencies =
  Calendar.[ Year; Semester; Quarter; Month; Week; Day ]

(* Years on both sides of the four-digit range, and inside it. *)
let gen_year =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; 999; 1000; 9999; -1; 10000; -10000; 123456 ];
        int_range (-20000) 20000;
        int_range 0 9999;
      ])

let gen_date_in gen_year =
  QCheck.Gen.(
    map3
      (fun year month day ->
        let day = min day (Calendar.Date.days_in_month ~year ~month) in
        Calendar.Date.make ~year ~month ~day)
      gen_year (int_range 1 12) (int_range 1 31))

(* The text [Value.add_to_buffer] appends. *)
let buffer_text v =
  let buf = Buffer.create 16 in
  Value.add_to_buffer buf v;
  Buffer.contents buf

(* One row through the CSV writer: its cells parse back to the text of
   [Value.to_string], strings that need quoting included. *)
let csv_row_matches d str m =
  let c = cube_of "C" [ ("d", Domain.Date); ("s", Domain.String) ] [ [ d; vs str; m ] ] in
  Csv.parse_rows (Csv.cube_to_string c)
  = [ [ "d"; "s"; "value" ]; [ Value.to_string d; str; Value.to_string m ] ]

let prop_fast_to_string =
  let gen =
    QCheck.Gen.(
      quad (gen_date_in gen_year) (pair (oneofl frequencies) (gen_date_in gen_year))
        (oneof
           [
             oneofl
               [ 0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 0.5; -2.25;
                 Float.nan; Float.infinity; Float.neg_infinity ];
             map float_of_int (int_range (-1_000_000) 1_000_000);
             map (fun f -> Float.round (f *. 1e15)) (float_range (-1.) 1.);
             float_range (-1e6) 1e6;
           ])
        (pair
           (oneof
              [
                oneofl [ min_int; max_int; 0; -1; 9; -10; 1_000_000_007 ];
                int;
                small_signed_int;
              ])
           (oneof
              [
                oneofl [ ""; "a,b"; "say \"hi\""; "two\nlines"; "cr\r"; "\""; "plain" ];
                string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; ' '; '1' ]) (int_bound 6);
              ])))
  in
  QCheck.Test.make ~count:1000 ~name:"fast to_string == Printf text"
    (QCheck.make
       ~print:(fun (d, (_, pd), f, (i, str)) ->
         Printf.sprintf "%s / %s / %h / %d / %S" (printf_date d) (printf_date pd) f i str)
       gen)
    (fun (d, (freq, pd), f, (i, str)) ->
      let p = Calendar.Period.of_date freq pd in
      Calendar.Date.to_string d = printf_date d
      && Calendar.Period.to_string p = printf_period p
      && Value.to_string (Value.Float f) = printf_float f
      && List.for_all
           (fun v -> buffer_text v = Value.to_string v)
           Value.[ Date d; Period p; Float f; Int i; Float (float_of_int i); String str; Null ]
      && csv_row_matches (Value.Date d) str (Value.Float (float_of_int i)))

let test_fast_to_string_edges () =
  let d y = Calendar.Date.make ~year:y ~month:1 ~day:2 in
  List.iter
    (fun (want, got) -> Alcotest.(check string) want want got)
    [
      ("0000-01-02", Calendar.Date.to_string (d 0));
      ("9999-01-02", Calendar.Date.to_string (d 9999));
      ("10000-01-02", Calendar.Date.to_string (d 10000));
      ("-001-01-02", Calendar.Date.to_string (d (-1)));
      ("0007", Calendar.Period.to_string (Calendar.Period.year 7));
      ("-007", Calendar.Period.to_string (Calendar.Period.year (-7)));
      ("0012Q3", Calendar.Period.to_string (Calendar.Period.quarter 12 3));
      ("12345M01", Calendar.Period.to_string (Calendar.Period.month 12345 1));
      ("-0", Value.to_string (Value.Float (-0.)));
      ("0", Value.to_string (Value.Float 0.));
      ("999999999999999", Value.to_string (Value.Float (1e15 -. 1.)));
      ("-999999999999999", Value.to_string (Value.Float (-.(1e15 -. 1.))));
      ("1e+15", Value.to_string (Value.Float 1e15));
      ("-4611686018427387904", buffer_text (Value.Int min_int));
      ("-0", buffer_text (Value.Float (-0.)));
      ("-999999999999999", buffer_text (Value.Float (-.(1e15 -. 1.))));
      ("-1e+15", buffer_text (Value.Float (-1e15)));
      ("-001-01-02", buffer_text (Value.Date (d (-1))));
      ("0000-01-02", buffer_text (Value.Date (d 0)));
      ("10000-01-02", buffer_text (Value.Date (d 10000)));
      ("", buffer_text Value.Null);
    ];
  Alcotest.(check bool) "quoted cells read back" true
    (List.for_all
       (fun str -> csv_row_matches (Value.Date (d 2020)) str (Value.Float (-0.)))
       [ ""; "a,\"b\""; "two\nlines"; "cr\r" ])

let store_roundtrip ~dir cube =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary cube;
  Result.bind (Store.save ~dir reg) (fun () -> Store.load ~dir)

(* String codes that look like other types reload as the strings they
   are; the empty string is written quoted and reloads as itself. *)
let test_store_string_codes () =
  let dir = temp_dir "exl_codes" in
  List.iter
    (fun code ->
      let c = cube_of "C" [ ("geo", Domain.String) ] [ [ vs code; vf 1. ] ] in
      match store_roundtrip ~dir c with
      | Error msg -> Alcotest.failf "%S: %s" code msg
      | Ok back ->
          let reg = Registry.create () in
          Registry.add reg Registry.Elementary c;
          Alcotest.(check bool) (code ^ " round-trips") true
            (Registry.equal_data reg back);
          Alcotest.(check (list (pair (list value) value)))
            (code ^ " stays a string")
            [ ([ vs code ], vi 1) ]
            (List.map
               (fun (k, v) -> (Tuple.to_list k, v))
               (Cube.to_alist (Registry.find_exn back "C"))))
    [ "040"; "2020Q1"; "true"; "1e3"; "2015-01-01"; "" ]

(* Big enough that the channel writers flush their buffer many times. *)
let test_store_large_cube () =
  let c =
    cube_of "BIG"
      [ ("i", Domain.Int); ("s", Domain.String) ]
      (List.init 20_000 (fun i ->
           [ vi i; vs (Printf.sprintf "code,%d \"q\"" (i mod 97)); vf (float_of_int i /. 7.) ]))
  in
  (match store_roundtrip ~dir:(temp_dir "exl_big") c with
  | Ok back -> Alcotest.check cube_eq "store" c (Registry.find_exn back "BIG")
  | Error msg -> Alcotest.fail msg);
  let path = Filename.temp_file "exl_big" ".csv" in
  let oc = open_out_bin path in
  Csv.cube_to_channel oc c;
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "cube_to_channel == cube_to_string" true
    (text = Csv.cube_to_string c)

let test_csv_duplicate_keys () =
  let schema = Schema.make ~name:"C" ~dims:[ ("geo", Domain.String) ] () in
  (match Csv.cube_of_string schema "geo,value\nit,1\nfr,2\nit,1\n" with
  | Ok c -> Alcotest.(check int) "identical duplicate kept once" 2 (Cube.cardinality c)
  | Error msg -> Alcotest.failf "identical duplicate rejected: %s" msg);
  match Csv.cube_of_string schema "geo,value\nit,1\nfr,2\nit,3\n" with
  | Error msg ->
      Alcotest.(check bool) msg true
        (Astring_contains.contains msg "line 4: duplicate key (it)")
  | Ok _ -> Alcotest.fail "conflicting duplicate accepted"

(* Typed columns parse by their domain, CRLF rows included, and name
   the cell they cannot read. *)
let test_csv_typed_cells () =
  let schema =
    Schema.make ~name:"C"
      ~dims:[ ("q", Domain.Period (Some Calendar.Quarter)); ("d", Domain.Date) ]
      ()
  in
  (match Csv.cube_of_string schema "q,d,value\r\n2020Q1,2020-01-31,1\r\n" with
  | Ok c ->
      Alcotest.(check (option value)) "typed key" (Some (vi 1))
        (Cube.find c (key [ vq 2020 1; vd 2020 1 31 ]))
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun (text, want) ->
      match Csv.cube_of_string schema text with
      | Error msg -> Alcotest.(check string) want want msg
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      ("q,d,value\n2020M01,2020-01-31,1\n",
       "line 2: column q: \"2020M01\" is not a quarter");
      ("q,d,value\n2020Q1,2020-02-30,1\n",
       "line 2: column d: \"2020-02-30\" is not a date");
    ]

let store_qcheck_count =
  Helpers.qcheck_count ~var:"EXL_STORE_QCHECK_COUNT" ~default:100

let all_domains =
  Domain.[ Bool; Int; Float; String; Date; Period None; Any ]
  @ List.map (fun f -> Domain.Period (Some f)) frequencies

(* Keys with every character the writer must quote, and codes that look
   like numbers, dates, periods and booleans. *)
let gen_code =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ ""; "040"; "2020Q1"; "2020"; "true"; "1e3"; "2015-01-01"; "-0"; "nan";
            "a,b"; "say \"hi\""; "cr\rlf\n"; "\""; ","; "\n" ];
        string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '9'; ','; '"'; '\r'; '\n'; ' '; '-'; 'Q' ])
          (int_range 0 6);
      ])

let gen_measure_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 0.1; -2.5e-7 ];
        map (fun f -> Float.round (f *. 1e15)) (float_range (-1.) 1.);
        float_range (-1e9) 1e9;
        map float_of_int (int_range (-1000) 1000);
      ])

let gen_period =
  QCheck.Gen.(
    map2 (fun f d -> Calendar.Period.of_date f d) (oneofl frequencies)
      (gen_date_in (int_range 1 9998)))

(* Values of a domain that its CSV text reads back as: under [Any] the
   guess decides, so strings there are letters the guess keeps. *)
let gen_value dom =
  let open QCheck.Gen in
  let date = map (fun d -> Value.Date d) (gen_date_in (int_range 0 9999)) in
  match dom with
  | Domain.Bool -> map (fun b -> Value.Bool b) bool
  | Domain.Int -> map (fun i -> Value.Int i) (oneof [ int_range (-1000) 1000; int ])
  | Domain.Float ->
      oneof [ map (fun f -> Value.Float f) gen_measure_float; map (fun i -> Value.Int i) small_signed_int ]
  | Domain.String -> map (fun s -> Value.String s) gen_code
  | Domain.Date -> date
  | Domain.Period None -> map (fun p -> Value.Period p) gen_period
  | Domain.Period (Some f) ->
      map (fun d -> Value.Period (Calendar.Period.of_date f d)) (gen_date_in (int_range 1 9998))
  | Domain.Any ->
      oneof
        [
          map (fun i -> Value.Int i) small_signed_int;
          map (fun f -> Value.Float (f +. 0.5)) (float_range (-1e6) 1e6);
          map (fun b -> Value.Bool b) bool;
          date;
          map
            (fun p -> Value.Period p)
            (map2 Calendar.Period.of_date
               (oneofl Calendar.[ Semester; Quarter; Month; Week ])
               (gen_date_in (int_range 1 9998)));
          map (fun s -> Value.String ("x" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5));
          return (Value.String "");
        ]

let gen_codec_cube =
  let open QCheck.Gen in
  let* dims = list_size (int_range 0 3) (oneofl all_domains) in
  let* measure_domain = oneof [ return Domain.Float; oneofl all_domains ] in
  let schema =
    Schema.make ~name:"T" ~measure_domain
      ~dims:(List.mapi (fun i d -> (Printf.sprintf "d%d" i, d)) dims)
      ()
  in
  let gen_key =
    flatten_l
      (List.map
         (fun d -> frequency [ (1, return Value.Null); (9, gen_value d) ])
         dims)
  in
  let+ rows = list_size (int_range 0 40) (pair gen_key (gen_value measure_domain)) in
  let c = Cube.create schema in
  List.iter (fun (k, v) -> Cube.set c (Tuple.of_list k) v) rows;
  c

let prop_codec_roundtrip =
  let dir = lazy (temp_dir "exl_codec") in
  QCheck.Test.make ~count:store_qcheck_count
    ~name:"csv and store codecs round-trip every domain"
    (QCheck.make
       ~print:(fun c -> Schema.to_string (Cube.schema c) ^ "\n" ^ Csv.cube_to_string c)
       gen_codec_cube)
    (fun c ->
      let sorted =
        match Csv.cube_of_string (Cube.schema c) (Csv.cube_to_string c) with
        | Ok back -> Cube.equal_data c back
        | Error msg -> QCheck.Test.fail_reportf "sorted: %s" msg
      in
      let stored =
        match store_roundtrip ~dir:(Lazy.force dir) c with
        | Ok back -> Cube.equal_data c (Registry.find_exn back "T")
        | Error msg -> QCheck.Test.fail_reportf "store: %s" msg
      in
      sorted && stored)

let model_alist model =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

(* Cube.select against its specification: sort everything, filter,
   truncate.  A cube is read, copied, and edited: the edits go to its
   overlay (or fold it, past one key per eight facts).  They revise or
   remove the smallest matching keys, write random keys, and add keys
   (x < 0) that sort before every key of the table.  The cube must
   read like its model, and the copy as before.  Every read checks no limit, 0, 1, exactly the match
   count, one past it and a random limit; filter values 50 and "zzz"
   match nothing. *)
let prop_cube_select_spec =
  QCheck.Test.make
    ~count:(Helpers.qcheck_count ~var:"EXL_STORE_QCHECK_COUNT" ~default:200)
    ~name:"cube select == to_alist |> filter |> take"
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 120)
           (triple (int_range 0 49) (int_range 0 2) (int_range (-50) 50)))
        (pair (int_range 0 3) (pair (int_range (-2) 50) (int_range 0 3)))
        (int_range 0 40)
        (pair (int_range 0 4)
           (list_of_size Gen.(int_range 0 12)
              (triple (int_range (-3) 49) (int_range 0 2) (int_range (-1) 50)))))
    (fun (rows, (mode, (x, y)), random_limit, (smallest, edits)) ->
      let shops = [| "a"; "b"; "c"; "zzz" |] in
      let schema =
        Schema.make ~name:"T" ~dims:[ ("x", Domain.Int); ("shop", Domain.String) ] ()
      in
      let c = Cube.create schema and model = Hashtbl.create 64 in
      let write k v =
        if v < 0 then (Cube.remove c k; Hashtbl.remove model k)
        else begin
          Cube.set c k (vf (float_of_int v));
          Hashtbl.replace model k (vf (float_of_int v))
        end
      in
      List.iter (fun (x, s, v) -> write (key [ vi x; vs shops.(s) ]) (abs v)) rows;
      let on_x = (0, vi x) and on_shop = (1, vs shops.(y)) in
      let filters =
        match mode with
        | 0 -> []
        | 1 -> [ on_x ]
        | 2 -> [ on_shop ]
        | _ -> [ on_x; on_shop ]
      in
      let reads_spec c alist =
        let m = List.length (select_spec ~filters alist) in
        List.for_all
          (fun limit ->
            same_rows (Cube.select ?limit ~filters c) (select_spec ?limit ~filters alist))
          [ None; Some 0; Some 1; Some m; Some (m + 1); Some random_limit ]
      in
      let before = model_alist model in
      let fresh = reads_spec c before in
      let held = Cube.copy c in
      List.iteri
        (fun i (k, _) -> write k (if i mod 2 = 0 then -1 else 1000 + i))
        (select_spec ~limit:smallest ~filters before);
      List.iter (fun (x, s, v) -> write (key [ vi x; vs shops.(s) ]) v) edits;
      fresh && reads_spec c (model_alist model) && reads_spec held before)

(* --- versioned cubes: copies against a frozen model --- *)

let vc_regions = [| "a"; "b"; "007"; "7" |]
let vc_xs = 16

let vc_schema name =
  Schema.make ~name ~dims:[ ("x", Domain.Int); ("r", Domain.String) ] ()

let vc_reads =
  List.concat_map
    (fun filters -> List.map (fun limit -> (filters, limit)) [ None; Some 0; Some 1; Some 3 ])
    ([ []; [ (1, vs "zz") ]; [ (0, vi 3); (1, vs "007") ]; [ (0, vi 0) ]; [ (0, vi 7) ] ]
    @ List.map (fun r -> [ (1, vs r) ]) (Array.to_list vc_regions))

(* Every way of reading [c] agrees with [model]. *)
let reads_like c model =
  let alist = model_alist model in
  let iterated = ref [] in
  Cube.iter (fun k v -> iterated := (k, v) :: !iterated) c;
  let all_keys =
    List.concat_map
      (fun x -> List.map (fun r -> key [ vi x; vs r ]) ("zz" :: Array.to_list vc_regions))
      (List.init (vc_xs + 1) Fun.id)
  in
  Cube.cardinality c = Hashtbl.length model
  && same_rows (Cube.to_alist c) alist
  && same_rows (List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !iterated) alist
  && List.for_all
       (fun k ->
         let expected = Hashtbl.find_opt model k in
         Option.equal Value.equal (Cube.find c k) expected
         && Option.is_some (Cube.find c k) = Option.is_some expected)
       all_keys
  && List.for_all
       (fun (filters, limit) ->
         same_rows (Cube.select ?limit ~filters c) (select_spec ?limit ~filters alist))
       vc_reads

(* Random set/remove/add_strict batches on a growing set of live
   cubes, each with its Hashtbl model.  At random points one of them is
   copied (or re-schemed): the copy either joins the live set, so both
   sides keep being written, or is retained unwritten beside a frozen
   copy of the model.  Batches of up to 40 writes over 68 keys fold
   overlays often.  Every cube, live or retained, must read like its
   model, checked after every fifth batch. *)
let prop_versioned_cube =
  QCheck.Test.make ~count:store_qcheck_count
    ~name:"versioned cube: every copy reads like its model" Gen.arb_seed (fun seed ->
      let st = Random.State.make [| seed |] in
      let rand_key () =
        key [ vi (Random.State.int st vc_xs); vs vc_regions.(Random.State.int st 4) ]
      in
      let rand_value () = vf (float_of_int (Random.State.int st 6)) in
      let live = ref [ (Cube.create (vc_schema "T"), Hashtbl.create 16) ] in
      let retained = ref [] in
      let write (c, model) =
        let k = rand_key () in
        match Random.State.int st 6 with
        | 0 ->
            Cube.remove c k;
            Hashtbl.remove model k
        | 1 -> (
            let v = rand_value () in
            match Cube.add_strict c k v with
            | () ->
                if Option.fold ~none:false ~some:(fun w -> not (Value.equal v w))
                     (Hashtbl.find_opt model k)
                then QCheck.Test.fail_report "add_strict accepted a clash";
                Hashtbl.replace model k v
            | exception Cube.Functionality_violation _ ->
                if Option.fold ~none:true ~some:(Value.equal v) (Hashtbl.find_opt model k)
                then QCheck.Test.fail_report "add_strict raised without a clash")
        | 2 ->
            Cube.set c k Value.Null;
            Hashtbl.remove model k
        | _ ->
            let v = rand_value () in
            Cube.set c k v;
            Hashtbl.replace model k v
      in
      let check what (c, model) =
        if not (reads_like c model) then
          QCheck.Test.fail_reportf "%s cube %s reads wrong" what (Cube.name c)
      in
      for step = 1 to 30 do
        let lives = Array.of_list !live in
        let size = if Random.State.int st 3 = 0 then 40 else 1 + Random.State.int st 4 in
        for _ = 1 to size do
          write lives.(Random.State.int st (Array.length lives))
        done;
        if Random.State.int st 2 = 0 then begin
          let c, model = lives.(Random.State.int st (Array.length lives)) in
          let copied =
            if Random.State.bool st then Cube.copy c
            else Cube.with_schema (vc_schema (Printf.sprintf "T%d" step)) c
          in
          let entry = (copied, Hashtbl.copy model) in
          if Array.length lives < 6 && Random.State.bool st then live := entry :: !live
          else retained := entry :: !retained
        end;
        if step mod 5 = 0 then begin
          List.iter (check "live") !live;
          List.iter (check "retained") !retained
        end
      done;
      true)

(* Reader threads slice the copies the writer publishes, racing to
   build each copy's ordered table and sorted posting lists, while the
   writer keeps revising the live cube and folding its overlay into
   fresh tables. *)
let test_versioned_cube_threads () =
  let live = Cube.create (vc_schema "T") and model = Hashtbl.create 512 in
  for x = 0 to 127 do
    Array.iter
      (fun r ->
        let k = key [ vi x; vs r ] in
        Cube.set live k (vf (float_of_int x));
        Hashtbl.replace model k (vf (float_of_int x)))
      vc_regions
  done;
  let published = Atomic.make (Cube.copy live, model_alist model) in
  let stop = Atomic.make false and wrong = Atomic.make 0 and slices = Atomic.make 0 in
  let reader () =
    while not (Atomic.get stop) do
      let held, alist = Atomic.get published in
      List.iter
        (fun (filters, limit) ->
          if not (same_rows (Cube.select ?limit ~filters held) (select_spec ?limit ~filters alist))
          then Atomic.incr wrong;
          Atomic.incr slices;
          Thread.yield ())
        [
          ([ (1, vs "a") ], None);
          ([ (0, vi 5) ], Some 3);
          ([ (1, vs "7"); (0, vi 9) ], None);
          ([], Some 5);
          ([ (1, vs "007") ], Some 2);
        ]
    done
  in
  let readers = List.init 3 (fun _ -> Thread.create reader ()) in
  let st = Random.State.make [| 7 |] in
  for round = 1 to 40 do
    for _ = 1 to 25 do
      let k = key [ vi (Random.State.int st 160); vs vc_regions.(Random.State.int st 4) ] in
      if Random.State.int st 4 = 0 then (Cube.remove live k; Hashtbl.remove model k)
      else begin
        let v = vf (float_of_int (round * 1000 + Random.State.int st 1000)) in
        Cube.set live k v;
        Hashtbl.replace model k v
      end;
      Thread.yield ()
    done;
    Atomic.set published (Cube.copy live, model_alist model)
  done;
  while Atomic.get slices < 300 do Thread.yield () done;
  Atomic.set stop true;
  List.iter Thread.join readers;
  Alcotest.(check int) "slices that read wrong" 0 (Atomic.get wrong);
  Alcotest.(check bool) "the live cube reads like its model" true (reads_like live model)

(* --- SDMX export (dissemination) --- *)

let test_sdmx_time_periods () =
  let check expected p = Alcotest.(check string) expected expected (Sdmx.time_period p) in
  check "2020" (Calendar.Period.year 2020);
  check "2020-S2" (Calendar.Period.semester 2020 2);
  check "2020-Q3" (Calendar.Period.quarter 2020 3);
  check "2020-07" (Calendar.Period.month 2020 7);
  check "2021-W01" (Calendar.Period.week 2021 1);
  check "2020-02-29" (Calendar.Period.day (Calendar.Date.make ~year:2020 ~month:2 ~day:29))

let test_sdmx_dsd () =
  let schema =
    Schema.make ~name:"GDP"
      ~dims:[ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      ()
  in
  let xml = Sdmx.dsd_of_schema schema in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Astring_contains.contains xml fragment))
    [
      "<structure:DataStructure id=\"DSD_GDP\"";
      "<structure:Dimension id=\"R\" position=\"1\"";
      "<structure:TimeDimension id=\"Q\" position=\"2\"/>";
      "<structure:PrimaryMeasure id=\"VALUE\"";
    ]

let test_sdmx_generic_data () =
  let cube =
    cube_of "GDP"
      [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [
        [ vq 2020 1; vs "north"; vf 10. ];
        [ vq 2020 2; vs "north"; vf 11. ];
        [ vq 2020 1; vs "south"; vf 20. ];
      ]
  in
  let xml = Sdmx.generic_data_of_cube cube in
  (* two series (north, south), observations keyed by SDMX periods *)
  let count needle =
    let rec loop i acc =
      if i + String.length needle > String.length xml then acc
      else if String.sub xml i (String.length needle) = needle then
        loop (i + 1) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check int) "two series" 2 (count "<generic:Series>");
  Alcotest.(check int) "three obs" 3 (count "<generic:Obs>");
  Alcotest.(check bool) "period format" true
    (Astring_contains.contains xml "value=\"2020-Q1\"");
  Alcotest.(check bool) "series key" true
    (Astring_contains.contains xml "<generic:Value id=\"R\" value=\"north\"/>")

let test_sdmx_escaping () =
  let cube =
    cube_of "X" [ ("r", Domain.String) ] [ [ vs "a<b&\"c\""; vf 1. ] ]
  in
  let xml = Sdmx.generic_data_of_cube cube in
  Alcotest.(check bool) "escaped" true
    (Astring_contains.contains xml "a&lt;b&amp;&quot;c&quot;")

let test_sdmx_dataflows () =
  let reg = overview_registry () in
  let xml = Sdmx.dataflow_of_registry reg in
  Alcotest.(check bool) "pdr dataflow" true
    (Astring_contains.contains xml
       "<structure:Dataflow id=\"PDR\" agencyID=\"EXLENGINE\" class=\"elementary\"")

(* --- persistence --- *)

let test_store_roundtrip () =
  let reg = overview_registry () in
  (* include a derived cube so kinds round-trip too *)
  let out = check_ok (Exl.Interp.run (load_overview ()) reg) in
  let dir = Filename.temp_file "exl_store" "" in
  Sys.remove dir;
  (match Store.save ~dir out with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Store.load ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
      Alcotest.(check bool) "registries equal" true
        (Registry.equal_data ~eps:1e-6 out loaded);
      Alcotest.(check (option string)) "kind preserved" (Some "elementary")
        (Option.map Registry.kind_to_string (Registry.kind_of loaded "PDR"));
      Alcotest.(check (option string)) "derived preserved" (Some "derived")
        (Option.map Registry.kind_to_string (Registry.kind_of loaded "GDP"))

(* A failed final flush (a full disk) is an error, not a saved store:
   the cube's file is a link to a device that refuses every write. *)
let test_store_full_disk () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = temp_dir "exl_full" in
  Sys.mkdir dir 0o755;
  Unix.symlink "/dev/full" (Filename.concat dir "C.csv");
  let c = cube_of "C" [ ("geo", Domain.String) ] [ [ vs "it"; vf 1. ] ] in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary c;
  match Store.save ~dir reg with
  | Ok () -> Alcotest.fail "save reported success on a full disk"
  | Error _ -> ()

let test_manifest_parse_errors () =
  (match Store.registry_schemas_of_manifest "bad line" with
  | Error msg -> Alcotest.(check bool) "malformed" true
      (Astring_contains.contains msg "malformed")
  | Ok _ -> Alcotest.fail "expected error");
  match Store.registry_schemas_of_manifest "X|elementary|d:frobnicate|value:float\n" with
  | Error msg ->
      Alcotest.(check bool) "unknown domain" true
        (Astring_contains.contains msg "unknown domain")
  | Ok _ -> Alcotest.fail "expected error"

(* --- the column view and the CSV writer --- *)

(* The CSV writer of cubes without a column view: each row rendered
   cell by cell from its boxed key and measure.  Kept as the oracle of
   the view-based writer. *)
module Oracle_csv = struct
  let needs_quote s =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

  let add_field buf s =
    if needs_quote s then begin
      Buffer.add_char buf '"';
      String.iter
        (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
    end
    else Buffer.add_string buf s

  let add_value buf = function
    | Value.String "" -> Buffer.add_string buf "\"\""
    | Value.String s -> add_field buf s
    | v -> Value.add_to_buffer buf v

  let text c rows =
    let buf = Buffer.create 256 and schema = Cube.schema c in
    Array.iter
      (fun d ->
        add_field buf d.Schema.dim_name;
        Buffer.add_char buf ',')
      schema.Schema.dims;
    add_field buf schema.Schema.measure_name;
    Buffer.add_char buf '\n';
    rows (fun k v ->
        Array.iter
          (fun x ->
            add_value buf x;
            Buffer.add_char buf ',')
          (Tuple.to_array k);
        add_value buf v;
        Buffer.add_char buf '\n');
    Buffer.contents buf

  let sorted c = text c (fun add -> List.iter (fun (k, v) -> add k v) (Cube.to_alist c))
  let unsorted c = text c (fun add -> Cube.iter add c)
end

(* Key values that are [Value.equal] across representations, strings
   the writer must quote, the empty string, and dates outside the years
   0-9999 (written through their slow path). *)
let view_numbers =
  [| vi 1; vf 1.; vi 0; vf 0.; vf (-0.); vi 1_000_000_000_000_000; vf 1e15; vi (-3); vf 2.5 |]

let view_strings = [| ""; "a,b"; "say \"hi\""; "cr\rlf\n"; "plain"; "\"" |]

let view_dates =
  Array.map
    (fun (year, month, day) -> Value.Date (Calendar.Date.make ~year ~month ~day))
    [| (-20, 3, 1); (0, 1, 1); (2024, 2, 29); (9999, 12, 31); (10000, 1, 1); (123456, 7, 8) |]

let view_measures =
  Array.concat
    [ view_numbers; Array.map vs view_strings; view_dates; [| Value.Bool true; vf Float.nan |] ]

let view_schema =
  Schema.make ~name:"V" ~measure_domain:Domain.Any
    ~dims:[ ("n", Domain.Any); ("s", Domain.String); ("d", Domain.Date) ]
    ()

let view_key (n, s, d) =
  key [ view_numbers.(n); vs view_strings.(s); view_dates.(d) ]

(* Codes a first-seen dictionary issues to [values], in order, and the
   first value of each code. *)
let first_seen values =
  let seen = ref [] in
  let codes =
    List.map
      (fun x ->
        match List.find_opt (fun (y, _) -> Value.equal x y) !seen with
        | Some (_, c) -> c
        | None ->
            let c = List.length !seen in
            seen := (x, c) :: !seen;
            c)
      values
  in
  (codes, Array.of_list (List.rev_map fst !seen))

let channel_text write =
  let path = Filename.temp_file "exl_view" ".csv" in
  let oc = open_out_bin path in
  write oc;
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  text

(* One cube's view read back against its [iter] rows, and its CSV
   against the oracle's. *)
let view_agrees c =
  let v = Cube.view c in
  let rows = List.rev (Cube.fold (fun k x acc -> (k, x) :: acc) c []) in
  let arity = Schema.arity (Cube.schema c) in
  let column i = List.map (fun (k, _) -> Tuple.get k i) rows in
  let own_values =
    List.for_all Fun.id
      (List.mapi
         (fun r (k, x) ->
           identical v.Cube.measures.(r) x
           && List.for_all
                (fun i -> identical (Cube.key_value v i r) (Tuple.get k i))
                (List.init arity Fun.id))
         rows)
  in
  let coded i =
    let codes, firsts = first_seen (column i) in
    List.mapi (fun r _ -> Cube.code v i r) rows = codes
    && Dict.size v.Cube.dicts.(i) = Array.length firsts
    && Array.for_all Fun.id
         (Array.mapi (fun c x -> identical (Dict.decode v.Cube.dicts.(i) c) x) firsts)
    && Array.to_list v.Cube.exceptions.(i)
       = List.filteri
           (fun r (_, x) -> not (identical firsts.(List.nth codes r) x))
           (List.mapi (fun r x -> (r, x)) (column i))
  in
  v.Cube.size = List.length rows
  && own_values
  && List.for_all coded (List.init arity Fun.id)
  && Csv.cube_to_string c = Oracle_csv.sorted c
  && channel_text (fun oc -> Csv.cube_to_channel oc c) = Oracle_csv.sorted c
  && channel_text (fun oc -> Csv.cube_to_channel_unsorted oc c) = Oracle_csv.unsorted c

(* Random cubes over those values, and a copy revised through its
   overlay (writes and removals; past one key per eight facts it folds
   into a private table).  Each version's view holds its rows' own
   values and first-seen codes, and its CSV is the oracle's, byte for
   byte.  A copy and a written cube get a view of their own. *)
let prop_view_and_writer =
  let index n = QCheck.Gen.int_range 0 (n - 1) in
  let gen_key =
    QCheck.Gen.triple
      (index (Array.length view_numbers))
      (index (Array.length view_strings))
      (index (Array.length view_dates))
  in
  QCheck.Test.make ~count:store_qcheck_count
    ~name:"cube view decodes own values and writes the oracle's CSV"
    (QCheck.make
       ~print:(fun (rows, edits) ->
         Printf.sprintf "%d rows, %d edits" (List.length rows) (List.length edits))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 60) (pair gen_key (index (Array.length view_measures))))
           (list_size (int_range 0 30)
              (pair gen_key (int_range (-1) (Array.length view_measures - 1))))))
    (fun (rows, edits) ->
      let c = Cube.create view_schema in
      List.iter (fun (k, m) -> Cube.set c (view_key k) view_measures.(m)) rows;
      let before = view_agrees c in
      let v = Cube.view c in
      let copy = Cube.copy c in
      List.iter
        (fun (k, m) ->
          if m < 0 then Cube.remove copy (view_key k)
          else Cube.set copy (view_key k) view_measures.(m))
        edits;
      let copied = view_agrees copy && Cube.view copy != v in
      let kept = Cube.view c == v && view_agrees c in
      let w = Cube.view copy in
      Cube.set copy (view_key (0, 0, 0)) (vf 7.);
      before && copied && kept && Cube.view copy != w && view_agrees copy)

let suite =
  [
    ("date: rata die roundtrip", `Quick, test_date_rata_die_roundtrip);
    ("date: known epoch", `Quick, test_date_known_epoch);
    ("date: day of week", `Quick, test_date_day_of_week);
    ("date: leap years", `Quick, test_date_leap_years);
    ("date: add days", `Quick, test_date_add_days);
    ("date: string roundtrip", `Quick, test_date_string_roundtrip);
    ("period: of_date", `Quick, test_period_of_date);
    ("period: shift across years", `Quick, test_period_shift_across_years);
    ("period: start/end dates", `Quick, test_period_start_end);
    ("period: iso weeks", `Quick, test_period_iso_weeks);
    ("period: string roundtrip", `Quick, test_period_string_roundtrip);
    ("period: convert frequency", `Quick, test_period_convert);
    ("period: range", `Quick, test_period_range);
    QCheck_alcotest.to_alcotest prop_period_shift_inverse;
    QCheck_alcotest.to_alcotest prop_date_rata_die_bijective;
    QCheck_alcotest.to_alcotest prop_period_of_date_contains;
    ("value: numeric cross-type", `Quick, test_value_numeric_cross_type);
    ("value: of_string_guess", `Quick, test_value_guess);
    ("value: nan becomes null", `Quick, test_value_nan_becomes_null);
    ("domain: membership", `Quick, test_domain_membership);
    ("domain: union", `Quick, test_domain_union);
    ("tuple: ordering and projection", `Quick, test_tuple_ordering);
    QCheck_alcotest.to_alcotest prop_value_hash_consistent;
    QCheck_alcotest.to_alcotest prop_tuple_hash_consistent;
    ("cube: functionality", `Quick, test_cube_functionality);
    ("cube: null measures dropped", `Quick, test_cube_null_measure_dropped);
    ("cube: merge join intersection", `Quick, test_cube_merge_join_intersection);
    ("cube: merge join operand order", `Quick, test_cube_merge_join_operand_order);
    ("cube: diff data", `Quick, test_cube_diff_data);
    ("cube: of_rows validates", `Quick, test_cube_of_rows_validates);
    ("registry: kinds and deep copy", `Quick, test_registry_kinds_and_copy);
    ("csv: roundtrip with quoting", `Quick, test_csv_roundtrip);
    ("csv: rejects bad header", `Quick, test_csv_rejects_bad_header);
    ("csv: quoted newline", `Quick, test_csv_parse_quoted_newline);
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    ("csv: duplicate keys", `Quick, test_csv_duplicate_keys);
    ("csv: typed cells", `Quick, test_csv_typed_cells);
    ("codec: fast to_string edges", `Quick, test_fast_to_string_edges);
    QCheck_alcotest.to_alcotest prop_fast_to_string;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_cube_select_spec;
    ("sdmx: time periods", `Quick, test_sdmx_time_periods);
    ("sdmx: dsd", `Quick, test_sdmx_dsd);
    ("sdmx: generic data", `Quick, test_sdmx_generic_data);
    ("sdmx: escaping", `Quick, test_sdmx_escaping);
    ("sdmx: dataflows", `Quick, test_sdmx_dataflows);
    ("store: roundtrip", `Quick, test_store_roundtrip);
    ("store: manifest errors", `Quick, test_manifest_parse_errors);
    ("store: string codes round-trip", `Quick, test_store_string_codes);
    ("store: cube larger than the write buffer", `Quick, test_store_large_cube);
    ("store: full disk is an error", `Quick, test_store_full_disk);
    QCheck_alcotest.to_alcotest prop_versioned_cube;
    ("cube: threaded slices of copies during folds", `Quick, test_versioned_cube_threads);
    QCheck_alcotest.to_alcotest prop_view_and_writer;
  ]
