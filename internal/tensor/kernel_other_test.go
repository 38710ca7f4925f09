//go:build !amd64

package tensor

// forceGoKernel is a no-op where the Go micro kernel is the only one.
func forceGoKernel() (restore func()) { return func() {} }
