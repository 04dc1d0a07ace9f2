; An `analyze` fixture that fails to assemble: `frob` is no instruction.
.name bad-assembly
    li   r1, 1
    frob r1, r1
    halt
