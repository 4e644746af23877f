(* Scalable synthetic workloads for the benchmark harness and the
   test suite's counter checks.

   The paper's production data is Bank of Italy internal; these
   generators produce cubes with the same shapes (daily population,
   quarterly per-capita values, generic keyed measures) at any scale,
   deterministically. *)
open Matrix

let quarter_domain = Domain.Period (Some Calendar.Quarter)

let region_name i = Printf.sprintf "r%03d" i

(* --- the paper's Section 2 workload, scalable --- *)

let overview_program =
  {|
cube PDR(d: date, r: string);
cube RGDPPC(q: quarter, r: string);

PQR   := avg(PDR, group by quarter(d) as q, r);
RGDP  := RGDPPC * PQR;
GDP   := sum(RGDP, group by q);
GDPT  := stl_t(GDP);
PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
|}

let overview_registry ~regions ~years () =
  let reg = Registry.create () in
  let pdr =
    Cube.create
      (Schema.make ~name:"PDR"
         ~dims:[ ("d", Domain.Date); ("r", Domain.String) ]
         ())
  in
  let rgdppc =
    Cube.create
      (Schema.make ~name:"RGDPPC"
         ~dims:[ ("q", quarter_domain); ("r", Domain.String) ]
         ())
  in
  for ri = 0 to regions - 1 do
    let region = region_name ri in
    let base = 1_000_000. +. (250_000. *. float_of_int ri) in
    for year = 2015 to 2015 + years - 1 do
      let days = if Calendar.Date.is_leap_year year then 366 else 365 in
      for doy = 0 to days - 1 do
        let d =
          Calendar.Date.add_days (Calendar.Date.make ~year ~month:1 ~day:1) doy
        in
        let t = float_of_int (((year - 2015) * 365) + doy) in
        Cube.set pdr
          (Tuple.of_list [ Value.Date d; Value.String region ])
          (Value.Float (base +. (12. *. t)))
      done;
      for q = 1 to 4 do
        let t = float_of_int (((year - 2015) * 4) + q - 1) in
        let seasonal = 0.5 *. sin (Float.pi /. 2. *. float_of_int (q - 1)) in
        Cube.set rgdppc
          (Tuple.of_list
             [ Value.Period (Calendar.Period.quarter year q); Value.String region ])
          (Value.Float (7. +. (0.04 *. t) +. seasonal))
      done
    done
  done;
  Registry.add reg Registry.Elementary pdr;
  Registry.add reg Registry.Elementary rgdppc;
  reg

(* --- a single join tgd workload (the paper's tgd (2) / Figure 1) --- *)

let join_program =
  {|
cube A(q: quarter, r: string);
cube B(q: quarter, r: string);
C := A * B;
|}

(* Two cubes of [rows] tuples each, sharing all keys. *)
let join_registry ~rows () =
  let reg = Registry.create () in
  let quarters = max 1 (rows / 50) in
  let regions = max 1 (rows / quarters) in
  let make name offset =
    let cube =
      Cube.create
        (Schema.make ~name
           ~dims:[ ("q", quarter_domain); ("r", Domain.String) ]
           ())
    in
    for qi = 0 to quarters - 1 do
      for ri = 0 to regions - 1 do
        Cube.set cube
          (Tuple.of_list
             [
               Value.Period (Calendar.Period.make Calendar.Quarter ((2000 * 4) + qi));
               Value.String (region_name ri);
             ])
          (Value.Float (offset +. float_of_int ((qi * 7) + ri)))
      done
    done;
    cube
  in
  Registry.add reg Registry.Elementary (make "A" 1.);
  Registry.add reg Registry.Elementary (make "B" 2.);
  reg

(* --- aggregation workload --- *)

let agg_program =
  {|
cube A(q: quarter, r: string);
S := sum(A, group by q);
|}

(* --- seasonal decomposition workload --- *)

let stl_program =
  {|
cube A(q: quarter, r: string);
T := stl_t(A);
|}

let series_registry ~quarters ~regions () =
  let reg = Registry.create () in
  let cube =
    Cube.create
      (Schema.make ~name:"A"
         ~dims:[ ("q", quarter_domain); ("r", Domain.String) ]
         ())
  in
  for ri = 0 to regions - 1 do
    for qi = 0 to quarters - 1 do
      let t = float_of_int qi in
      Cube.set cube
        (Tuple.of_list
           [
             Value.Period (Calendar.Period.make Calendar.Quarter ((2000 * 4) + qi));
             Value.String (region_name ri);
           ])
        (Value.Float
           (100. +. (0.7 *. t)
           +. (8. *. sin (Float.pi /. 2. *. t))
           +. (3. *. cos (0.9 *. t *. float_of_int (ri + 1)))))
    done
  done;
  Registry.add reg Registry.Elementary cube;
  reg

(* --- optimizer workload: an outer combine with provably equal grids
   feeding a growth-rate chain (the normalizer temporaries the exl-opt
   fusion pass exists to eliminate) --- *)

let outer_growth_program =
  {|
cube A(q: quarter, r: string);
PADDED := vadd(A, A);
GROWTH := 100 * (PADDED - shift(PADDED, 1)) / PADDED;
TOTAL  := sum(GROWTH, group by q);
|}

(* --- scalar chain programs for translation-cost scaling --- *)

(* A0 elementary; D1 := A0 + 1; D2 := sqrt(D1); D3 := D2 * 2; ... *)
let chain_program ~length =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "cube A0(q: quarter, r: string);\n";
  let prev = ref "A0" in
  for i = 1 to length do
    let lhs = Printf.sprintf "D%d" i in
    let rhs =
      match i mod 4 with
      | 0 -> Printf.sprintf "%s + 1" !prev
      | 1 -> Printf.sprintf "2 * %s" !prev
      | 2 -> Printf.sprintf "abs(%s)" !prev
      | _ -> Printf.sprintf "%s - 3" !prev
    in
    Buffer.add_string buf (Printf.sprintf "%s := %s;\n" lhs rhs);
    prev := lhs
  done;
  Buffer.contents buf

let chain_registry ~rows () =
  let reg = Registry.create () in
  let quarters = max 1 (rows / 50) in
  let regions = max 1 (rows / quarters) in
  let cube =
    Cube.create
      (Schema.make ~name:"A0"
         ~dims:[ ("q", quarter_domain); ("r", Domain.String) ]
         ())
  in
  for qi = 0 to quarters - 1 do
    for ri = 0 to regions - 1 do
      Cube.set cube
        (Tuple.of_list
           [
             Value.Period (Calendar.Period.make Calendar.Quarter ((2000 * 4) + qi));
             Value.String (region_name ri);
           ])
        (Value.Float (float_of_int ((qi * 3) + ri + 1)))
    done
  done;
  Registry.add reg Registry.Elementary cube;
  reg

(* The second program for the determination-engine experiment. *)
let dissemination_program =
  {|
GDP_INDEX := 100 * GDP / 230000000;
GDP_SMOOTH := ma(GDP_INDEX, 4);
|}

(* Three independent heavy programs over disjoint cubes, for the
   parallel-dispatch experiment: each lands on a different engine under
   an etl-first policy (stl forces the vector engine; an override pins
   the third to SQL). *)
let independent_programs =
  [
    ("p1", "cube S1(q: quarter, r: string);\nT1 := stl_t(S1);\nA1 := T1 * 2;\n");
    ("p2", "cube S2(q: quarter, r: string);\nT2 := stl_s(S2);\nA2 := T2 + 1;\n");
    ("p3", "cube S3(q: quarter, r: string);\nT3 := deseason(S3);\nA3 := abs(T3);\n");
  ]

let independent_data ~quarters ~regions () =
  let reg = Registry.create () in
  List.iter
    (fun name ->
      let cube =
        Cube.create
          (Schema.make ~name
             ~dims:[ ("q", quarter_domain); ("r", Domain.String) ]
             ())
      in
      for ri = 0 to regions - 1 do
        for qi = 0 to quarters - 1 do
          let t = float_of_int qi in
          Cube.set cube
            (Tuple.of_list
               [
                 Value.Period (Calendar.Period.make Calendar.Quarter ((2000 * 4) + qi));
                 Value.String (region_name ri);
               ])
            (Value.Float (50. +. t +. (6. *. sin (Float.pi /. 2. *. t))))
        done
      done;
      Registry.add reg Registry.Elementary cube)
    [ "S1"; "S2"; "S3" ];
  reg
