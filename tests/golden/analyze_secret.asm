; An `analyze` fixture that declares a secret cell: a secret-indexed
; table lookup and a branch on the secret.
.name secret-lookup
.equ SECRET 0x3002100
.equ PROBE 0x2000000
.secret SECRET
.data SECRET 3
    li   r1, SECRET
    load r2, 0(r1)          ; the secret
    sll  r3, r2, 9          ; index -> offset (scale 0x200)
    li   r4, PROBE
    add  r4, r4, r3
    load r5, 0(r4)          ; secret-addressed
    beq  r2, zero, done     ; secret branch
    mul  r6, r2, r2
    mul  r6, r6, r6
done:
    halt
