(** SQL text rendering, in the paper's style:

    {v
    INSERT INTO RGDP(Q, R, P)
    SELECT C2.Q AS Q, C2.R AS R, C1.P * C2.G AS P
    FROM PQR C1, RGDPPC C2
    WHERE C1.Q = C2.Q AND C1.R = C2.R
    v} *)

val expr_to_string : Sql_ast.expr -> string
val select_to_string : Sql_ast.select -> string
val insert_to_string : Sql_ast.insert -> string

val statements_to_string : Sql_ast.statement list -> string
