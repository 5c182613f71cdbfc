package transform

import (
	"fmt"
	"go/ast"
	"go/token"
)

// Canonical loop form analysis. OpenMP worksharing applies to loops of the
// canonical form
//
//	for i := lb; i < ub; i++        (and <=, >, >=, --, +=, -=)
//
// which is what the paper's preprocessor recognises when it inserts the
// bound-calculation runtime call. analyzeFor extracts the pieces as source
// text (the preprocessor has no type information, so bounds stay opaque
// expressions evaluated by the generated code).
type loopInfo struct {
	varName string
	lb      string // begin expression
	end     string // exclusive end expression (adjusted for <= / >=)
	step    string // signed step expression
}

func analyzeFor(g *gen, fs *ast.ForStmt) (loopInfo, error) {
	var info loopInfo
	if fs.Init == nil || fs.Cond == nil || fs.Post == nil {
		return info, fmt.Errorf("loop is not in canonical form (need init; cond; post)")
	}

	// Init: `i := lb` or `i = lb` with a single variable.
	assign, ok := fs.Init.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return info, fmt.Errorf("loop init must be a single assignment like `i := 0`")
	}
	if assign.Tok != token.DEFINE && assign.Tok != token.ASSIGN {
		return info, fmt.Errorf("loop init must use := or =")
	}
	ident, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return info, fmt.Errorf("loop variable must be a plain identifier")
	}
	info.varName = ident.Name
	info.lb = g.text(assign.Rhs[0])

	// Cond: `i OP bound` with OP in < <= > >=.
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok {
		return info, fmt.Errorf("loop condition must compare the loop variable to a bound")
	}
	condVar, ok := cond.X.(*ast.Ident)
	if !ok || condVar.Name != info.varName {
		return info, fmt.Errorf("loop condition must have the loop variable %q on the left", info.varName)
	}
	bound := g.text(cond.Y)
	switch cond.Op {
	case token.LSS: // <
		info.end = bound
	case token.LEQ: // <=
		info.end = "(" + bound + ") + 1"
	case token.GTR: // >
		info.end = bound
	case token.GEQ: // >=
		info.end = "(" + bound + ") - 1"
	default:
		return info, fmt.Errorf("loop condition operator %q is not canonical (want < <= > >=)", cond.Op)
	}
	descending := cond.Op == token.GTR || cond.Op == token.GEQ

	// Post: i++ / i-- / i += c / i -= c.
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		pv, ok := post.X.(*ast.Ident)
		if !ok || pv.Name != info.varName {
			return info, fmt.Errorf("loop post must update the loop variable %q", info.varName)
		}
		if post.Tok == token.INC {
			info.step = "1"
		} else {
			info.step = "-1"
		}
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return info, fmt.Errorf("loop post must be a simple update")
		}
		pv, ok := post.Lhs[0].(*ast.Ident)
		if !ok || pv.Name != info.varName {
			return info, fmt.Errorf("loop post must update the loop variable %q", info.varName)
		}
		stepExpr := g.text(post.Rhs[0])
		switch post.Tok {
		case token.ADD_ASSIGN:
			info.step = "(" + stepExpr + ")"
		case token.SUB_ASSIGN:
			info.step = "-(" + stepExpr + ")"
		default:
			return info, fmt.Errorf("loop post operator %q is not canonical (want ++ -- += -=)", post.Tok)
		}
	default:
		return info, fmt.Errorf("loop post statement is not canonical (want ++ -- += -=)")
	}

	// Direction sanity for the literal-step cases we can see statically.
	if descending && info.step == "1" {
		return info, fmt.Errorf("descending loop condition with ascending step")
	}
	if !descending && info.step == "-1" {
		return info, fmt.Errorf("ascending loop condition with descending step")
	}
	return info, nil
}
