//go:build !amd64

package nn

// Off amd64 only the portable Go kernels exist and they are always bound.
const hostWidth = widthGo

// setKernelWidth is a no-op: the Go twins stay bound.
func setKernelWidth(int) int { return widthGo }
