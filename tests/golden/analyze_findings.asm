; An `analyze` fixture with error and warning findings and one
; suppressed finding.
.name findings
start:
    add  r2, r1, 1          ; AN-UBD: r1 is never written
    li   r5, 9
    add  r6, r7, r5         ; analysis: allow AN-UBD
    jmp  tail
    li   r3, 5              ; AN-DEAD: nothing branches here
tail:
    store r2, 0x100(zero)   ; AN-FALLOFF: no `halt` ends this path
