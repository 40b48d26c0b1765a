// Package sizeclass tells the layout tests which allocator size class a
// struct lands in. The Go allocator rounds every small object up to one of a
// fixed list of sizes, so a field added to a 416-byte struct costs 32 bytes a
// copy, not 8; a size-ceiling test that fails should say which class the
// struct fell into. Only tests import this package.
package sizeclass

// classes are the allocator's small-object sizes up to 2048 bytes
// (runtime/sizeclasses.go; unchanged since Go 1.16).
var classes = [...]uintptr{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024,
	1152, 1280, 1408, 1536, 1792, 2048,
}

// Of returns the number of bytes the allocator hands out for an object of
// the given size: the smallest class that holds it. Sizes past the table are
// returned as they are.
func Of(size uintptr) uintptr {
	for _, c := range classes {
		if size <= c {
			return c
		}
	}
	return size
}
