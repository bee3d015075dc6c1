package sql

// Walk calls visit on e and on every expression below it — a node before its
// operands, operands left to right — until visit returns false, and reports
// whether it got through the whole tree. It is the one place that knows which
// operands each node kind has: an analysis over parse trees is a visit
// function, never its own switch. A nil e is an empty tree.
func Walk(e Expr, visit func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	switch x := e.(type) {
	case *Binary:
		return Walk(x.Left, visit) && Walk(x.Right, visit)
	case *Unary:
		return Walk(x.Expr, visit)
	case *IsNull:
		return Walk(x.Expr, visit)
	case *Between:
		return Walk(x.Expr, visit) && Walk(x.Lo, visit) && Walk(x.Hi, visit)
	case *In:
		return Walk(x.Expr, visit) && walkAll(x.List, visit)
	case *Like:
		return Walk(x.Expr, visit)
	case *Case:
		for _, w := range x.Whens {
			if !Walk(w.Cond, visit) || !Walk(w.Then, visit) {
				return false
			}
		}
		return Walk(x.Else, visit)
	case *FuncCall:
		return walkAll(x.Args, visit)
	}
	return true // ColumnRef, Literal: no operands
}

func walkAll(list []Expr, visit func(Expr) bool) bool {
	for _, e := range list {
		if !Walk(e, visit) {
			return false
		}
	}
	return true
}
