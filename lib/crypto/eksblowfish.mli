(** Eksblowfish (Provos-Mazières '99): cost-parameterized password
    hashing.  SFS transforms passwords with it before SRP and private-key
    encryption so off-line guessing stays expensive as hardware improves
    (paper section 2.5.2). *)

val hash : cost:int -> salt:string -> string -> string
(** 24-byte password hash (bcrypt's construction: the eksblowfish state
    encrypts a fixed magic value 64 times). *)
