package mapreduce

// TypedEmit is the typed emission callback.
type TypedEmit[K, V any] func(key K, value V)

// TypedMapper mirrors the typed mapper interface.
type TypedMapper[KI, VI, KO, VO any] interface {
	Setup(ctx *TaskContext) error
	Map(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error
	Cleanup(ctx *TaskContext, emit TypedEmit[KO, VO]) error
}

// TypedReducer mirrors the typed reducer interface.
type TypedReducer[K, V, KO, VO any] interface {
	Setup(ctx *TaskContext) error
	Reduce(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error
	Cleanup(ctx *TaskContext, emit TypedEmit[KO, VO]) error
}

// TypedMapperBase provides no-op Setup/Cleanup.
type TypedMapperBase[KO, VO any] struct{}

// Setup implements TypedMapper.
func (TypedMapperBase[KO, VO]) Setup(*TaskContext) error { return nil }

// Cleanup implements TypedMapper.
func (TypedMapperBase[KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedReducerBase provides no-op Setup/Cleanup.
type TypedReducerBase[KO, VO any] struct{}

// Setup implements TypedReducer.
func (TypedReducerBase[KO, VO]) Setup(*TaskContext) error { return nil }

// Cleanup implements TypedReducer.
func (TypedReducerBase[KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedMapFunc adapts a function to TypedMapper.
type TypedMapFunc[KI, VI, KO, VO any] func(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error

// Setup implements TypedMapper.
func (TypedMapFunc[KI, VI, KO, VO]) Setup(*TaskContext) error { return nil }

// Map implements TypedMapper.
func (f TypedMapFunc[KI, VI, KO, VO]) Map(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error {
	return f(ctx, key, value, emit)
}

// Cleanup implements TypedMapper.
func (TypedMapFunc[KI, VI, KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedReduceFunc adapts a function to TypedReducer.
type TypedReduceFunc[K, V, KO, VO any] func(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error

// Setup implements TypedReducer.
func (TypedReduceFunc[K, V, KO, VO]) Setup(*TaskContext) error { return nil }

// Reduce implements TypedReducer.
func (f TypedReduceFunc[K, V, KO, VO]) Reduce(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error {
	return f(ctx, key, values, emit)
}

// Cleanup implements TypedReducer.
func (TypedReduceFunc[K, V, KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// Codec mirrors the typed codec interface.
type Codec[T any] interface {
	Append(dst []byte, v T) []byte
	Decode(s string) (T, error)
}

// RawComparer mirrors the raw-byte key comparator.
type RawComparer interface {
	RawCompare(a, b string) int
}

// TypedJob mirrors the generic job description.
type TypedJob[KI, VI, KM, VM, KO, VO any] struct {
	Name       string
	InputPaths []string
	OutputPath string

	Mapper   func() TypedMapper[KI, VI, KM, VM]
	Reducer  func() TypedReducer[KM, VM, KO, VO]
	Combiner func() TypedReducer[KM, VM, KM, VM]

	InputKey    Codec[KI]
	InputValue  Codec[VI]
	MapKey      Codec[KM]
	MapValue    Codec[VM]
	OutputKey   Codec[KO]
	OutputValue Codec[VO]

	NumReducers int
	Partition   func(key KM, numReducers int) int

	Conf map[string]string
}

// Build mirrors the lowering entry point.
func (tj *TypedJob[KI, VI, KM, VM, KO, VO]) Build() *Job { return &Job{Name: tj.Name} }
