//go:build !amd64

package nn

// Off amd64 only the portable Go kernels exist and they are always bound.
const hostWidth = widthGo

// bindKernels has nothing to bind: the Go twins stay bound.
func bindKernels(int) {}
