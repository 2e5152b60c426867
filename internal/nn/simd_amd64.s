//go:build amd64

#include "textflag.h"

// Every vector kernel of the package: the Dense tile kernels, the
// element-wise training kernels, the 16-lane vdot and the Adam update, and
// the AVX-512 twins of the Dense tile kernels and Adam at the end of the
// file. Bit-identity contract: only VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD
// (and their scalar VEX forms for length tails), compares, blends and
// moves — one IEEE rounding per lane per operation, exactly what the Go
// twins in simd_kernel.go compute. No fused multiply-add (FMA3) mnemonic
// may appear in this file, not even in a comment, and CI greps for one:
// fusing a multiply-add skips the intermediate rounding. The reductions
// (vdot and its row-blocked forms vdot3 and vdot6) fold their lanes as
// vdotGo defines (ending in VEXTRACTF128/VADDPD/VUNPCKHPD/VADDSD) — golden
// tests in simd_test.go pin every routine at every width.

DATA simdone<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL simdone<>(SB), RODATA, $8

// func cpuFeatures() (avx, avx512 bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx512+1(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// AVX needs the CPU flags (ECX bit 28) and OSXSAVE (ECX bit 27).
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  featdone
	// XGETBV: the OS must save both XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX
	CMPL AX, $6
	JNE  featdone
	MOVB $1, avx+0(FP)
	// AVX-512F: XCR0 must also cover the opmask (bit 5), the upper halves
	// of ZMM0-15 (bit 6) and ZMM16-31 (bit 7), and leaf 7 must report
	// AVX512F (EBX bit 16).
	ANDL $0xe6, R8
	CMPL R8, $0xe6
	JNE  featdone
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   featdone
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   featdone
	MOVB $1, avx512+1(FP)

featdone:
	RET

// func axpy1avx(v float64, w, o *float64, n int)
// o[k] += v * w[k]
TEXT ·axpy1avx(SB), NOSPLIT, $0-32
	MOVQ w+8(FP), SI
	MOVQ o+16(FP), R8
	MOVQ n+24(FP), CX

	VBROADCASTSD v+0(FP), Y0

	MOVQ CX, DX
	SHRQ $3, DX
	JZ   tail1

loop1:
	VMOVUPD (SI), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8), Y5, Y5
	VMOVUPD Y5, (R8)
	VMOVUPD 32(SI), Y6
	VMULPD  Y6, Y0, Y7
	VADDPD  32(R8), Y7, Y7
	VMOVUPD Y7, 32(R8)
	ADDQ    $64, SI
	ADDQ    $64, R8
	DECQ    DX
	JNZ     loop1

tail1:
	ANDQ $7, CX
	JZ   done1

tailloop1:
	VMOVSD (SI), X4
	VMULSD X4, X0, X5
	VADDSD (R8), X5, X5
	VMOVSD X5, (R8)
	ADDQ   $8, SI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    tailloop1

done1:
	VZEROUPPER
	RET

// func vaddavx(dst, x *float64, n int)
// dst[i] += x[i]
TEXT ·vaddavx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   addtail

addloop:
	VMOVUPD (SI), Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     addloop

addtail:
	ANDQ $3, CX
	JZ   adddone

addtailloop:
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    addtailloop

adddone:
	VZEROUPPER
	RET

// func vmuladdavx(dst, a, b *float64, n int)
// dst[i] += a[i]*b[i]
TEXT ·vmuladdavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   matail

maloop:
	VMOVUPD (SI), Y1
	VMULPD  (BX), Y1, Y2
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     maloop

matail:
	ANDQ $3, CX
	JZ   madone

matailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X2
	VADDSD (DI), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    matailloop

madone:
	VZEROUPPER
	RET

// func vsqdiffavx(dst, x, m *float64, n int)
// dst[i] += (x[i]-m[i])^2
TEXT ·vsqdiffavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ m+16(FP), BX
	MOVQ n+24(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   sqtail

sqloop:
	VMOVUPD (SI), Y1
	VSUBPD  (BX), Y1, Y2
	VMULPD  Y2, Y2, Y3
	VADDPD  (DI), Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     sqloop

sqtail:
	ANDQ $3, CX
	JZ   sqdone

sqtailloop:
	VMOVSD (SI), X1
	VSUBSD (BX), X1, X2
	VMULSD X2, X2, X3
	VADDSD (DI), X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    sqtailloop

sqdone:
	VZEROUPPER
	RET

// func vdivsavx(x *float64, s float64, n int)
// x[i] /= s
TEXT ·vdivsavx(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+16(FP), CX

	VBROADCASTSD s+8(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   divtail

divloop:
	VMOVUPD (DI), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JNZ     divloop

divtail:
	ANDQ $3, CX
	JZ   divdone

divtailloop:
	VMOVSD (DI), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNZ    divtailloop

divdone:
	VZEROUPPER
	RET

// func vscaleavx(dst, x *float64, s float64, n int)
// dst[i] = s * x[i]
TEXT ·vscaleavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTSD s+16(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   scaletail

scaleloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     scaleloop

scaletail:
	ANDQ $3, CX
	JZ   scaledone

scaletailloop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scaletailloop

scaledone:
	VZEROUPPER
	RET

// func vbnnormavx(xh, x, mean, std *float64, n int)
// xh[i] = (x[i]-mean[i]) / std[i]
TEXT ·vbnnormavx(SB), NOSPLIT, $0-40
	MOVQ xh+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ mean+16(FP), BX
	MOVQ std+24(FP), R8
	MOVQ n+32(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnntail

bnnloop:
	VMOVUPD (SI), Y1
	VSUBPD  (BX), Y1, Y2
	VDIVPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnnloop

bnntail:
	ANDQ $3, CX
	JZ   bnndone

bnntailloop:
	VMOVSD (SI), X1
	VSUBSD (BX), X1, X2
	VDIVSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnntailloop

bnndone:
	VZEROUPPER
	RET

// func vbnaffineavx(o, xh, gamma, beta *float64, n int)
// o[i] = gamma[i]*xh[i] + beta[i]
TEXT ·vbnaffineavx(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ xh+8(FP), SI
	MOVQ gamma+16(FP), BX
	MOVQ beta+24(FP), R8
	MOVQ n+32(FP), CX

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnatail

bnaloop:
	VMOVUPD (SI), Y1
	VMULPD  (BX), Y1, Y2
	VADDPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnaloop

bnatail:
	ANDQ $3, CX
	JZ   bnadone

bnatailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X2
	VADDSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnatailloop

bnadone:
	VZEROUPPER
	RET

// func vbnbackavx(gi, grad, xh, coef, sumG, sumGX *float64, nf float64, n int)
// gi[i] = coef[i] * (nf*g[i] - sumG[i] - xh[i]*sumGX[i])
TEXT ·vbnbackavx(SB), NOSPLIT, $0-64
	MOVQ gi+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ xh+16(FP), BX
	MOVQ coef+24(FP), R8
	MOVQ sumG+32(FP), R9
	MOVQ sumGX+40(FP), R10
	MOVQ n+56(FP), CX

	VBROADCASTSD nf+48(FP), Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   bnbtail

bnbloop:
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y2
	VSUBPD  (R9), Y2, Y2
	VMOVUPD (BX), Y3
	VMULPD  (R10), Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VMULPD  (R8), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	DECQ    DX
	JNZ     bnbloop

bnbtail:
	ANDQ $3, CX
	JZ   bnbdone

bnbtailloop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X2
	VSUBSD (R9), X2, X2
	VMOVSD (BX), X3
	VMULSD (R10), X3, X3
	VSUBSD X3, X2, X2
	VMULSD (R8), X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, R8
	ADDQ   $8, R9
	ADDQ   $8, R10
	ADDQ   $8, DI
	DECQ   CX
	JNZ    bnbtailloop

bnbdone:
	VZEROUPPER
	RET

// func vreluavx(dst, x *float64, n int)
// dst[i] = MAXPD(+0, x[i]): 0 for negatives, x for -0/NaN/non-negatives —
// exactly the scalar `if x < 0 { 0 } else { x }`.
TEXT ·vreluavx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   relutail

reluloop:
	VMOVUPD (SI), Y1
	VMAXPD  Y1, Y0, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     reluloop

relutail:
	ANDQ $3, CX
	JZ   reludone

relutailloop:
	VMOVSD (SI), X1
	VMAXSD X1, X0, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    relutailloop

reludone:
	VZEROUPPER
	RET

// func vlreluavx(dst, x *float64, alpha float64, n int)
// dst[i] = x[i] < 0 ? alpha*x[i] : x[i]
TEXT ·vlreluavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTSD alpha+16(FP), Y0
	VXORPD       Y2, Y2, Y2

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   lrtail

lrloop:
	VMOVUPD   (SI), Y1
	VCMPPD    $0x11, Y2, Y1, Y3
	VMULPD    Y0, Y1, Y4
	VBLENDVPD Y3, Y4, Y1, Y5
	VMOVUPD   Y5, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      DX
	JNZ       lrloop

lrtail:
	ANDQ $3, CX
	JZ   lrdone

lrtailloop:
	VMOVSD    (SI), X1
	VCMPSD    $0x11, X2, X1, X3
	VMULSD    X0, X1, X4
	VBLENDVPD X3, X4, X1, X5
	VMOVSD    X5, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       lrtailloop

lrdone:
	VZEROUPPER
	RET

// func vlrelubwdavx(gi, grad, x *float64, alpha float64, n int)
// gi[i] = g[i] * (x[i] < 0 ? alpha : 1); alpha=0 is the ReLU backward.
TEXT ·vlrelubwdavx(SB), NOSPLIT, $0-40
	MOVQ gi+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ x+16(FP), BX
	MOVQ n+32(FP), CX

	VBROADCASTSD alpha+24(FP), Y0
	VBROADCASTSD simdone<>(SB), Y1
	VXORPD       Y4, Y4, Y4

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   lbtail

lbloop:
	VMOVUPD   (BX), Y2
	VCMPPD    $0x11, Y4, Y2, Y5
	VBLENDVPD Y5, Y0, Y1, Y6
	VMOVUPD   (SI), Y7
	VMULPD    Y6, Y7, Y7
	VMOVUPD   Y7, (DI)
	ADDQ      $32, SI
	ADDQ      $32, BX
	ADDQ      $32, DI
	DECQ      DX
	JNZ       lbloop

lbtail:
	ANDQ $3, CX
	JZ   lbdone

lbtailloop:
	VMOVSD    (BX), X2
	VCMPSD    $0x11, X4, X2, X5
	VBLENDVPD X5, X0, X1, X6
	VMOVSD    (SI), X7
	VMULSD    X6, X7, X7
	VMOVSD    X7, (DI)
	ADDQ      $8, SI
	ADDQ      $8, BX
	ADDQ      $8, DI
	DECQ      CX
	JNZ       lbtailloop

lbdone:
	VZEROUPPER
	RET

// func vdotavx(a, b *float64, n int) float64
// 16-lane dot: lane k sums elements i = k (mod 16); the fold and the
// sequential scalar tail follow vdotGo.
TEXT ·vdotavx(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ n+16(FP), CX

	// Four independent accumulators (lanes 0-3, 4-7, 8-11, 12-15) so the
	// VADDPD chains overlap instead of serializing on one register.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dotfold

dotloop:
	VMOVUPD (SI), Y4
	VMULPD  (BX), Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(SI), Y5
	VMULPD  32(BX), Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD 64(SI), Y4
	VMULPD  64(BX), Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD 96(SI), Y5
	VMULPD  96(BX), Y5, Y5
	VADDPD  Y5, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $128, BX
	DECQ    DX
	JNZ     dotloop

dotfold:
	// f[k] = (l[k]+l[k+8]) + (l[k+4]+l[k+12]), then the 4-lane horizontal
	// fold (f0+f2) + (f1+f3) — matching vdotGo exactly.
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0

	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0

	ANDQ $15, CX
	JZ   dotdone

dottailloop:
	VMOVSD (SI), X1
	VMULSD (BX), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, BX
	DECQ   CX
	JNZ    dottailloop

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// The Dense tile kernels. skiprowWavx accumulates, for a W-column stripe
// of one acc row held in registers across the whole reduction,
//
//	acc[k] += x[t*sx] * v[t*sv + k]   for each t of lst, in list order,
//
// where lst holds the ascending steps t whose x[t*sx] is nonzero: the
// Dense zero skip is done by the caller building the list, so the kernel
// adds exactly the terms of the scalar loop, in its order, and spends no
// work on the skipped ones. One kernel serves the forward (acc = an output
// row, x = an input row, v = the weight rows) and the weight gradient
// (acc = a weight-gradient row, x = an input column, v = the output-
// gradient rows). Each product is added as prod + acc, axpy1avx's
// operand order. Registers: DI = acc, SI = x, R8 = sx bytes, R9 = lst,
// CX = count, BX = v, R10 = sv bytes.

// SKIPNEXT takes the next listed step t: Y8 = x[t*sx] broadcast, DX =
// &v[t*sv].
#define SKIPNEXT \
	MOVLQSX      (R9), AX; \
	MOVQ         AX, DX; \
	IMULQ        R8, AX; \
	IMULQ        R10, DX; \
	VBROADCASTSD (SI)(AX*1), Y8; \
	ADDQ         BX, DX; \
	ADDQ         $4, R9

// SKIPTERM adds one 4-wide slice of the term to accumulator a.
#define SKIPTERM(off, a, tmp) \
	VMULPD off(DX), Y8, tmp; \
	VADDPD a, tmp, a

// func skiprow32avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)
TEXT ·skiprow32avx(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TESTQ   CX, CX
	JZ      sr32store

sr32loop:
	SKIPNEXT
	SKIPTERM(0, Y0, Y9)
	SKIPTERM(32, Y1, Y10)
	SKIPTERM(64, Y2, Y11)
	SKIPTERM(96, Y3, Y12)
	SKIPTERM(128, Y4, Y13)
	SKIPTERM(160, Y5, Y14)
	SKIPTERM(192, Y6, Y15)
	SKIPTERM(224, Y7, Y9)
	DECQ CX
	JNZ  sr32loop

sr32store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func skiprow16avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)
TEXT ·skiprow16avx(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	TESTQ   CX, CX
	JZ      sr16store

sr16loop:
	SKIPNEXT
	SKIPTERM(0, Y0, Y9)
	SKIPTERM(32, Y1, Y10)
	SKIPTERM(64, Y2, Y11)
	SKIPTERM(96, Y3, Y12)
	DECQ CX
	JNZ  sr16loop

sr16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func skiprow8avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)
TEXT ·skiprow8avx(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	TESTQ   CX, CX
	JZ      sr8store

sr8loop:
	SKIPNEXT
	SKIPTERM(0, Y0, Y9)
	SKIPTERM(32, Y1, Y10)
	DECQ CX
	JNZ  sr8loop

sr8store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func skiprow4avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)
TEXT ·skiprow4avx(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	TESTQ   CX, CX
	JZ      sr4store

sr4loop:
	SKIPNEXT
	SKIPTERM(0, Y0, Y9)
	DECQ CX
	JNZ  sr4loop

sr4store:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func skiprowmaskavx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int, mask *int64)
//
// The 1-3 column tail: skiprow4avx with every acc and v access masked to
// the lanes whose mask word has its sign bit set (VMASKMOVPD never touches
// the others, so it reads and writes nothing past the row).
TEXT ·skiprowmaskavx(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	MOVQ mask+56(FP), AX
	VMOVUPD    (AX), Y15
	VMASKMOVPD (DI), Y15, Y0
	TESTQ      CX, CX
	JZ         srmstore

srmloop:
	SKIPNEXT
	VMASKMOVPD (DX), Y15, Y9
	VMULPD     Y9, Y8, Y9
	VADDPD     Y0, Y9, Y0
	DECQ       CX
	JNZ        srmloop

srmstore:
	VMASKMOVPD Y0, Y15, (DI)
	VZEROUPPER
	RET

// VDOT3STEP multiplies one 4-lane slice of the shared weight row (held in
// Y12) into the matching accumulator of each of three gradient rows.
#define VDOT3STEP(off, a0, a1, a2) \
	VMOVUPD off(BX), Y12; \
	VMULPD  off(SI), Y12, Y13; \
	VADDPD  Y13, a0, a0; \
	VMULPD  off(SI)(R12*1), Y12, Y14; \
	VADDPD  Y14, a1, a1; \
	VMULPD  off(SI)(R12*2), Y12, Y15; \
	VADDPD  Y15, a2, a2

// VDOTFOLD folds one row's four accumulators (lanes 0-3, 4-7, 8-11, 12-15)
// into the low lane of l0 exactly as vdotGo and vdotavx do:
// ((l0+l2) + (l1+l3)), then (f0+f2) + (f1+f3).
#define VDOTFOLD(l0, l1, l2, l3, x0, x1, x2) \
	VADDPD       l2, l0, l0; \
	VADDPD       l3, l1, l1; \
	VADDPD       l1, l0, l0; \
	VEXTRACTF128 $1, l0, x1; \
	VADDPD       x1, x0, x0; \
	VUNPCKHPD    x0, x0, x2; \
	VADDSD       x2, x0, x0

// func vdot3avx(gi *float64, ldi int, grad, w *float64, in, n int)
//
// For j = 0..in-1 and r = 0..2: gi[r*ldi + j] = vdot(g[r*n:(r+1)*n],
// w[j*n:(j+1)*n]) — three Dense input-gradient rows at once, each weight
// row loaded once for all three. Every dot keeps vdot's 16-lane scheme:
// the same products land in the same lanes, fold in the same order, and
// the < 16 remainder is added sequentially after the fold.
TEXT ·vdot3avx(SB), NOSPLIT, $0-48
	MOVQ gi+0(FP), DI
	MOVQ ldi+8(FP), R8
	SHLQ $3, R8
	MOVQ grad+16(FP), R9
	MOVQ w+24(FP), BX
	MOVQ in+32(FP), R10
	MOVQ n+40(FP), R11
	MOVQ R11, R12
	SHLQ $3, R12 // gradient row stride in bytes
	MOVQ R11, R13
	SHRQ $4, R13 // 16-element chunks
	ANDQ $15, R11 // sequential remainder

	TESTQ R10, R10
	JZ    d3done

d3row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   R9, SI
	MOVQ   R13, CX
	TESTQ  CX, CX
	JZ     d3fold

d3chunk:
	VDOT3STEP(0, Y0, Y4, Y8)
	VDOT3STEP(32, Y1, Y5, Y9)
	VDOT3STEP(64, Y2, Y6, Y10)
	VDOT3STEP(96, Y3, Y7, Y11)
	ADDQ $128, SI
	ADDQ $128, BX
	DECQ CX
	JNZ  d3chunk

d3fold:
	VDOTFOLD(Y0, Y1, Y2, Y3, X0, X1, X2)
	VDOTFOLD(Y4, Y5, Y6, Y7, X4, X5, X6)
	VDOTFOLD(Y8, Y9, Y10, Y11, X8, X9, X10)

	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    d3store

d3tail:
	VMOVSD (BX), X12
	VMULSD (SI), X12, X13
	VADDSD X13, X0, X0
	VMULSD (SI)(R12*1), X12, X14
	VADDSD X14, X4, X4
	VMULSD (SI)(R12*2), X12, X15
	VADDSD X15, X8, X8
	ADDQ   $8, SI
	ADDQ   $8, BX
	DECQ   CX
	JNZ    d3tail

d3store:
	VMOVSD X0, (DI)
	VMOVSD X4, (DI)(R8*1)
	VMOVSD X8, (DI)(R8*2)
	ADDQ   $8, DI
	DECQ   R10
	JNZ    d3row

d3done:
	VZEROUPPER
	RET

// func adamavx(p, grad, m, v *float64, k *adamCoef, n int)
//
// The Adam element update of adamGo, four lanes at a time over n&^3
// elements (adamAVX leaves the 0-3 element tail to adamGo):
//
//	g' = g + wd*p           (only when k.decay)
//	m  = b1*m + c1*g'
//	v  = b2*v + (c2*g')*g'
//	p  = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
//
// VSQRTPD and VDIVPD round exactly like math.Sqrt and /.
TEXT ·adamavx(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ k+32(FP), AX
	MOVQ n+40(FP), CX

	VBROADCASTSD 0(AX), Y7   // b1
	VBROADCASTSD 8(AX), Y8   // c1
	VBROADCASTSD 16(AX), Y9  // b2
	VBROADCASTSD 24(AX), Y10 // c2
	VBROADCASTSD 32(AX), Y11 // bc1
	VBROADCASTSD 40(AX), Y12 // bc2
	VBROADCASTSD 48(AX), Y13 // lr
	VBROADCASTSD 56(AX), Y14 // eps
	VBROADCASTSD 64(AX), Y15 // wd
	MOVBLZX      72(AX), R10 // decay

	MOVQ CX, DX
	SHRQ $2, DX
	JZ   adamdone

adamloop:
	VMOVUPD (SI), Y0
	TESTQ   R10, R10
	JZ      adamnodecay
	VMULPD  (DI), Y15, Y1
	VADDPD  Y1, Y0, Y0

adamnodecay:
	VMULPD  (R8), Y7, Y2
	VMULPD  Y0, Y8, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (R8)
	VMULPD  (R9), Y9, Y4
	VMULPD  Y0, Y10, Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (R9)
	VDIVPD  Y11, Y2, Y2
	VDIVPD  Y12, Y4, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y14, Y4, Y4
	VMULPD  Y2, Y13, Y2
	VDIVPD  Y4, Y2, Y2
	VMOVUPD (DI), Y6
	VSUBPD  Y2, Y6, Y6
	VMOVUPD Y6, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    DX
	JNZ     adamloop

adamdone:
	VZEROUPPER
	RET

// The AVX-512 twins. They implement the same definitions as the AVX
// kernels above with 8-lane ZMM vectors: per-lane VMULPD/VADDPD/VDIVPD/
// VSQRTPD, one IEEE rounding per lane per operation, never fused. They
// run only where the gate reports AVX512F with the OS saving ZMM and
// opmask state, and end in VZEROUPPER like every kernel here.

// SKIPNEXT512 is SKIPNEXT with the step's x broadcast to all of Z8.
#define SKIPNEXT512 \
	MOVLQSX      (R9), AX; \
	MOVQ         AX, DX; \
	IMULQ        R8, AX; \
	IMULQ        R10, DX; \
	VBROADCASTSD (SI)(AX*1), Z8; \
	ADDQ         BX, DX; \
	ADDQ         $4, R9

// SKIPTERM512 adds one 8-wide slice of the term to accumulator a, in
// SKIPTERM's operand order (product + acc).
#define SKIPTERM512(off, a, tmp) \
	VMULPD off(DX), Z8, tmp; \
	VADDPD a, tmp, a

// func skiprow64avx512(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)
//
// skiprow32avx over a 64-column stripe held in eight ZMM accumulators.
TEXT ·skiprow64avx512(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sx+16(FP), R8
	SHLQ $3, R8
	MOVQ lst+24(FP), R9
	MOVQ cnt+32(FP), CX
	MOVQ v+40(FP), BX
	MOVQ sv+48(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	TESTQ   CX, CX
	JZ      sr64store

sr64loop:
	SKIPNEXT512
	SKIPTERM512(0, Z0, Z9)
	SKIPTERM512(64, Z1, Z10)
	SKIPTERM512(128, Z2, Z11)
	SKIPTERM512(192, Z3, Z12)
	SKIPTERM512(256, Z4, Z13)
	SKIPTERM512(320, Z5, Z14)
	SKIPTERM512(384, Z6, Z15)
	SKIPTERM512(448, Z7, Z16)
	DECQ CX
	JNZ  sr64loop

sr64store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VZEROUPPER
	RET

// VDOT6ROW multiplies the shared 16-element weight chunk (Z12 = elements
// 0-7, Z13 = 8-15) into one gradient row's two accumulators: lo holds
// vdot's lanes 0-7 (from mlo), hi its lanes 8-15 (from mhi).
#define VDOT6ROW(mlo, mhi, lo, hi) \
	VMULPD mlo, Z12, Z14; \
	VADDPD Z14, lo, lo; \
	VMULPD mhi, Z13, Z15; \
	VADDPD Z15, hi, hi

// VDOTFOLD512 folds one row's two accumulators into the low lane of lo.
// lo+hi holds (l[k]+l[k+8]) for k < 8: its low half is what VDOTFOLD's
// first add makes of lanes 0-3 and 8-11, its high half of lanes 4-7 and
// 12-15, so adding the halves gives f[k] = (l[k]+l[k+8]) + (l[k+4]+l[k+12])
// and the 4-lane fold that follows is VDOTFOLD's own.
#define VDOTFOLD512(zlo, zhi, ylo, yhi, xlo, xhi, x2) \
	VADDPD        zhi, zlo, zlo; \
	VEXTRACTF64X4 $1, zlo, yhi; \
	VADDPD        yhi, ylo, ylo; \
	VEXTRACTF128  $1, ylo, xhi; \
	VADDPD        xhi, xlo, xlo; \
	VUNPCKHPD     xlo, xlo, x2; \
	VADDSD        x2, xlo, xlo

// VDOT6TAIL adds one remainder term to a folded row sum: x12 holds the
// weight element.
#define VDOT6TAIL(mem, acc, tmp) \
	VMULSD mem, X12, tmp; \
	VADDSD tmp, acc, acc

// func vdot6avx512(gi *float64, ldi int, grad, w *float64, in, n int)
//
// vdot3avx for six gradient rows at once: gi[r*ldi + j] = vdot(g[r*n:
// (r+1)*n], w[j*n:(j+1)*n]) for r < 6 and j < in. Row r keeps vdot's 16
// lanes in two ZMM accumulators (Z(2r) = lanes 0-7, Z(2r+1) = lanes 8-15),
// so every lane adds its terms in vdot's order; the fold and the
// sequential < 16 remainder are vdot's. Rows 0-2 are addressed from SI,
// rows 3-5 from R14 = SI + 3 rows.
TEXT ·vdot6avx512(SB), NOSPLIT, $0-48
	MOVQ gi+0(FP), DI
	MOVQ ldi+8(FP), R8
	SHLQ $3, R8
	MOVQ grad+16(FP), R9
	MOVQ w+24(FP), BX
	MOVQ in+32(FP), R10
	MOVQ n+40(FP), R11
	MOVQ R11, R12
	SHLQ $3, R12 // gradient row stride in bytes
	LEAQ (R8)(R8*2), DX // three gi rows in bytes
	MOVQ R11, R13
	SHRQ $4, R13  // 16-element chunks
	ANDQ $15, R11 // sequential remainder

	TESTQ R10, R10
	JZ    d6done

d6row:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	MOVQ   R9, SI
	LEAQ   (R9)(R12*2), R14
	ADDQ   R12, R14
	MOVQ   R13, CX
	TESTQ  CX, CX
	JZ     d6fold

d6chunk:
	VMOVUPD (BX), Z12
	VMOVUPD 64(BX), Z13
	VDOT6ROW((SI), 64(SI), Z0, Z1)
	VDOT6ROW((SI)(R12*1), 64(SI)(R12*1), Z2, Z3)
	VDOT6ROW((SI)(R12*2), 64(SI)(R12*2), Z4, Z5)
	VDOT6ROW((R14), 64(R14), Z6, Z7)
	VDOT6ROW((R14)(R12*1), 64(R14)(R12*1), Z8, Z9)
	VDOT6ROW((R14)(R12*2), 64(R14)(R12*2), Z10, Z11)
	ADDQ $128, SI
	ADDQ $128, R14
	ADDQ $128, BX
	DECQ CX
	JNZ  d6chunk

d6fold:
	VDOTFOLD512(Z0, Z1, Y0, Y1, X0, X1, X13)
	VDOTFOLD512(Z2, Z3, Y2, Y3, X2, X3, X13)
	VDOTFOLD512(Z4, Z5, Y4, Y5, X4, X5, X13)
	VDOTFOLD512(Z6, Z7, Y6, Y7, X6, X7, X13)
	VDOTFOLD512(Z8, Z9, Y8, Y9, X8, X9, X13)
	VDOTFOLD512(Z10, Z11, Y10, Y11, X10, X11, X13)

	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    d6store

d6tail:
	VMOVSD (BX), X12
	VDOT6TAIL((SI), X0, X13)
	VDOT6TAIL((SI)(R12*1), X2, X14)
	VDOT6TAIL((SI)(R12*2), X4, X15)
	VDOT6TAIL((R14), X6, X13)
	VDOT6TAIL((R14)(R12*1), X8, X14)
	VDOT6TAIL((R14)(R12*2), X10, X15)
	ADDQ   $8, SI
	ADDQ   $8, R14
	ADDQ   $8, BX
	DECQ   CX
	JNZ    d6tail

d6store:
	LEAQ   (DI)(DX*1), AX
	VMOVSD X0, (DI)
	VMOVSD X2, (DI)(R8*1)
	VMOVSD X4, (DI)(R8*2)
	VMOVSD X6, (AX)
	VMOVSD X8, (AX)(R8*1)
	VMOVSD X10, (AX)(R8*2)
	ADDQ   $8, DI
	DECQ   R10
	JNZ    d6row

d6done:
	VZEROUPPER
	RET

// func adamavx512(p, grad, m, v *float64, k *adamCoef, n int)
//
// adamavx eight lanes at a time over n&^7 elements (adamAVX512 leaves the
// 0-7 element tail to adamGo), in adamGo's order of operations.
TEXT ·adamavx512(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ k+32(FP), AX
	MOVQ n+40(FP), CX

	VBROADCASTSD 0(AX), Z7   // b1
	VBROADCASTSD 8(AX), Z8   // c1
	VBROADCASTSD 16(AX), Z9  // b2
	VBROADCASTSD 24(AX), Z10 // c2
	VBROADCASTSD 32(AX), Z11 // bc1
	VBROADCASTSD 40(AX), Z12 // bc2
	VBROADCASTSD 48(AX), Z13 // lr
	VBROADCASTSD 56(AX), Z14 // eps
	VBROADCASTSD 64(AX), Z15 // wd
	MOVBLZX      72(AX), R10 // decay

	MOVQ CX, DX
	SHRQ $3, DX
	JZ   adam512done

adam512loop:
	VMOVUPD (SI), Z0
	TESTQ   R10, R10
	JZ      adam512nodecay
	VMULPD  (DI), Z15, Z1
	VADDPD  Z1, Z0, Z0

adam512nodecay:
	VMULPD  (R8), Z7, Z2
	VMULPD  Z0, Z8, Z3
	VADDPD  Z3, Z2, Z2
	VMOVUPD Z2, (R8)
	VMULPD  (R9), Z9, Z4
	VMULPD  Z0, Z10, Z5
	VMULPD  Z0, Z5, Z5
	VADDPD  Z5, Z4, Z4
	VMOVUPD Z4, (R9)
	VDIVPD  Z11, Z2, Z2
	VDIVPD  Z12, Z4, Z4
	VSQRTPD Z4, Z4
	VADDPD  Z14, Z4, Z4
	VMULPD  Z2, Z13, Z2
	VDIVPD  Z4, Z2, Z2
	VMOVUPD (DI), Z6
	VSUBPD  Z2, Z6, Z6
	VMOVUPD Z6, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R9
	DECQ    DX
	JNZ     adam512loop

adam512done:
	VZEROUPPER
	RET
