#include "textflag.h"

// func prefetchw(data []uint64, words int, idx []int64) int
//
// PREFETCHW m8 is 0F 0D /1, ModRM 0x0B for (BX); Go's assembler has no
// mnemonic for it. Intel SDM Vol. 2B, PREFETCHW: a hint that does not
// affect program behaviour; a CPU without the PRFCHW feature
// (CPUID.80000001H:ECX bit 8) executes the encoding as a NOP.
TEXT ·prefetchw(SB), NOSPLIT, $0-64
	MOVQ data_base+0(FP), DI
	MOVQ data_len+8(FP), DX
	MOVQ words+24(FP), R8
	MOVQ idx_base+32(FP), SI
	MOVQ idx_len+40(FP), CX
	XORQ R9, R9
loop:
	CMPQ R9, CX
	JEQ  done
	MOVQ (SI)(R9*8), AX
	CMPQ AX, DX
	JAE  done // unsigned: catches a negative index, and keeps the product below from wrapping
	IMULQ R8, AX
	CMPQ AX, DX
	JAE  done
	LEAQ (DI)(AX*8), BX
	BYTE $0x0F; BYTE $0x0D; BYTE $0x0B
	INCQ R9
	JMP  loop
done:
	MOVQ R9, ret+56(FP)
	RET
