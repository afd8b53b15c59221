package txir

import (
	"fmt"

	"qracn/internal/store"
)

// Env holds one transaction invocation's state: immutable parameters fixed
// before the first attempt (including any random draws, so re-executions are
// deterministic) and the private variables statements define.
type Env struct {
	params map[string]any
	vars   map[Var]store.Value
}

// NewEnv creates an environment over the given parameters.
func NewEnv(params map[string]any) *Env {
	if params == nil {
		params = map[string]any{}
	}
	return &Env{params: params, vars: make(map[Var]store.Value)}
}

// Param returns a parameter value (nil if absent).
func (e *Env) Param(name string) any { return e.params[name] }

// ParamInt returns an integer parameter; it panics on a missing or
// mistyped parameter, which is a workload programming error.
func (e *Env) ParamInt(name string) int {
	v, ok := e.params[name]
	if !ok {
		panic(fmt.Sprintf("txir: missing parameter %q", name))
	}
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	default:
		panic(fmt.Sprintf("txir: parameter %q is %T, want int", name, v))
	}
}

// ParamStr returns a string parameter.
func (e *Env) ParamStr(name string) string {
	v, ok := e.params[name]
	if !ok {
		panic(fmt.Sprintf("txir: missing parameter %q", name))
	}
	s, ok := v.(string)
	if !ok {
		panic(fmt.Sprintf("txir: parameter %q is %T, want string", name, v))
	}
	return s
}

// Get returns a variable's current value (nil if never set).
func (e *Env) Get(v Var) store.Value { return e.vars[v] }

// GetInt64 returns a variable as int64 (0 for nil).
func (e *Env) GetInt64(v Var) int64 { return store.AsInt64(e.vars[v]) }

// Set assigns a variable.
func (e *Env) Set(v Var, val store.Value) { e.vars[v] = val }

// SetInt64 assigns an integer variable.
func (e *Env) SetInt64(v Var, val int64) { e.vars[v] = store.Int64(val) }
