package runtime

// observeKeeps makes fn see every checkpoint blob installed as a
// recovery point until the returned function is called.
func observeKeeps(fn func(blob []byte)) (stop func()) {
	keepHook = fn
	return func() { keepHook = nil }
}
