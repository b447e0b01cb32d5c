#include "textflag.h"

// func prefetchw(addr *uint64)
//
// PREFETCHW m8 is 0F 0D /1, ModRM 0x08 for (AX); Go's assembler has no
// mnemonic for it. Intel SDM Vol. 2B, PREFETCHW: a hint that does not
// affect program behaviour; a CPU without the PRFCHW feature
// (CPUID.80000001H:ECX bit 8) executes the encoding as a NOP.
TEXT ·prefetchw(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	BYTE $0x0F; BYTE $0x0D; BYTE $0x08
	RET
